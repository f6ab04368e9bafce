package rest

import (
	"encoding/xml"
	"net/http"
	"strconv"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/queuexml"
	"azurebench/internal/storecommon"
)

// handleQueue routes /queue/{name}[/messages[/{id}]].
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	parts := pathParts(r, "/queue/")
	if len(parts) == 0 {
		// GET /queue/ enumerates queues.
		if r.Method != http.MethodGet {
			writeMethodNotAllowed(w, r)
			return
		}
		if !s.throttle.allow("", "") {
			writeBusy(w)
			return
		}
		done := engineStart(r)
		queues := s.Queue.ListQueues(r.URL.Query().Get("prefix"))
		done()
		writeXML(w, http.StatusOK, queueListXML{Queues: queues})
		return
	}
	name := parts[0]
	if !s.throttle.allow(name, "") {
		writeBusy(w)
		return
	}
	if len(parts) == 1 {
		s.handleQueueRoot(w, r, name)
		return
	}
	s.handleQueueMessages(w, r, name, parts[1])
}

func (s *Server) handleQueueRoot(w http.ResponseWriter, r *http.Request, name string) {
	switch {
	case r.Method == http.MethodPut:
		if err := engineDo(r, func() error { return s.Queue.CreateQueue(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Queue.DeleteQueue(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		// Queue metadata: the approximate message count header drives the
		// paper's barrier.
		done := engineStart(r)
		n, err := s.Queue.ApproximateCount(name)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("x-ms-approximate-messages-count", strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
	default:
		writeMethodNotAllowed(w, r)
	}
}

type queueListXML struct {
	XMLName xml.Name `xml:"EnumerationResults"`
	Queues  []string `xml:"Queues>Queue>Name"`
}

func (s *Server) handleQueueMessages(w http.ResponseWriter, r *http.Request, name, sub string) {
	q := r.URL.Query()
	switch {
	case sub == "messages" && r.Method == http.MethodPost:
		s.putMessage(w, r, name)
	case sub == "messages" && r.Method == http.MethodGet && q.Get("peekonly") == "true":
		max := intOr(q.Get("numofmessages"), 1)
		done := engineStart(r)
		msgs, err := s.Queue.Peek(name, max)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		writeMessageList(w, msgs)
	case sub == "messages" && r.Method == http.MethodGet:
		max := intOr(q.Get("numofmessages"), 1)
		vis := time.Duration(intOr(q.Get("visibilitytimeout"), 0)) * time.Second
		done := engineStart(r)
		msgs, err := s.Queue.Get(name, max, vis)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		writeMessageList(w, msgs)
	case sub == "messages" && r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Queue.ClearMessages(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodDelete: // messages/{id}
		id := sub[len("messages/"):]
		if err := engineDo(r, func() error { return s.Queue.Delete(name, id, q.Get("popreceipt")) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodPut: // messages/{id}: Update Message
		id := sub[len("messages/"):]
		body, err := decodeMessageBody(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		vis := time.Duration(intOr(q.Get("visibilitytimeout"), 0)) * time.Second
		done := engineStart(r)
		msg, err := s.Queue.Update(name, id, q.Get("popreceipt"), body, vis)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("x-ms-popreceipt", msg.PopReceipt)
		w.Header().Set("x-ms-time-next-visible", msg.NextVisible.UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusNoContent)
	default:
		writeMethodNotAllowed(w, r)
	}
}

func (s *Server) putMessage(w http.ResponseWriter, r *http.Request, name string) {
	body, err := decodeMessageBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	ttl := time.Duration(intOr(r.URL.Query().Get("messagettl"), 0)) * time.Second
	if err := engineDo(r, func() error { _, e := s.Queue.Put(name, body, ttl); return e }); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func decodeMessageBody(w http.ResponseWriter, r *http.Request) (payload.Payload, error) {
	raw, err := readLimited(w, r, 2*storecommon.MaxMessageSize)
	if err != nil {
		return payload.Payload{}, err
	}
	data, err := queuexml.DecodeMessage(raw)
	if err != nil {
		return payload.Payload{}, err
	}
	return payload.Bytes(data), nil
}

func writeMessageList(w http.ResponseWriter, msgs []queuestore.Message) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	w.Write(queuexml.EncodeMessageList(msgs))
}

func intOr(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}
