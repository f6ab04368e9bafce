package queuestore

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// refStore is the engine as it was before per-op work stopped depending
// on queue depth: every op reaps by scanning the whole queue, and every
// by-ID op searches linearly. The differential test drives it in lockstep
// with Store, so its bodies are kept as they were, not tidied.
type refStore struct {
	clock  vclock.Clock
	cfg    Config
	rng    *sim.Rand
	queues map[string]*refQueue
	popSeq uint64
}

type refQueue struct {
	name     string
	created  time.Time
	metadata map[string]string
	msgs     []*refMessage
	nextID   uint64
}

type refMessage struct {
	id           string
	body         payload.Payload
	inserted     time.Time
	expires      time.Time
	nextVisible  time.Time
	dequeueCount int
	popReceipt   string
}

func newRefStore(clock vclock.Clock, cfg Config) *refStore {
	if cfg.NonFIFOWindow < 1 {
		cfg.NonFIFOWindow = 1
	}
	return &refStore{
		clock:  clock,
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed),
		queues: map[string]*refQueue{},
	}
}

func (s *refStore) CreateQueue(name string) error {
	if err := storecommon.ValidateQueueName(name); err != nil {
		return err
	}
	if _, ok := s.queues[name]; ok {
		return storecommon.Errf(storecommon.CodeQueueAlreadyExists, 409, "queue %q already exists", name)
	}
	s.queues[name] = &refQueue{name: name, created: s.clock.Now()}
	return nil
}

func (s *refStore) DeleteQueue(name string) error {
	if _, ok := s.queues[name]; !ok {
		return queueNotFound(name)
	}
	delete(s.queues, name)
	return nil
}

func (s *refStore) ClearMessages(name string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	q.msgs = nil
	return nil
}

func (s *refStore) Put(name string, body payload.Payload, ttl time.Duration) (Message, error) {
	if body.Len() > storecommon.MaxMessagePayload {
		return Message{}, storecommon.Errf(storecommon.CodeMessageTooLarge, 400,
			"message of %d bytes exceeds the %d-byte usable payload", body.Len(), storecommon.MaxMessagePayload)
	}
	if ttl < 0 || ttl > storecommon.MaxMessageTTL {
		return Message{}, storecommon.Errf(storecommon.CodeInvalidInput, 400, "ttl %v outside (0, %v]", ttl, storecommon.MaxMessageTTL)
	}
	if ttl == 0 {
		ttl = storecommon.MaxMessageTTL
	}
	q, ok := s.queues[name]
	if !ok {
		return Message{}, queueNotFound(name)
	}
	now := s.clock.Now()
	q.nextID++
	m := &refMessage{
		id:          fmt.Sprintf("%s-msg-%d", name, q.nextID),
		body:        body,
		inserted:    now,
		expires:     now.Add(ttl),
		nextVisible: now,
	}
	q.msgs = append(q.msgs, m)
	return m.view(), nil
}

func (s *refStore) Get(name string, max int, visibility time.Duration) ([]Message, error) {
	if visibility == 0 {
		visibility = storecommon.DefaultVisibilityTimeout
	}
	if visibility < 0 || visibility > storecommon.MaxVisibilityTimeout {
		return nil, storecommon.Errf(storecommon.CodeInvalidVisibility, 400, "visibility %v out of range", visibility)
	}
	if max < 1 {
		max = 1
	}
	q, ok := s.queues[name]
	if !ok {
		return nil, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	var out []Message
	for len(out) < max {
		m := s.pickVisible(q, now)
		if m == nil {
			break
		}
		m.dequeueCount++
		m.nextVisible = now.Add(visibility)
		s.popSeq++
		m.popReceipt = "pr-" + strconv.FormatUint(s.popSeq, 10)
		out = append(out, m.view())
	}
	return out, nil
}

func (s *refStore) Peek(name string, max int) ([]Message, error) {
	if max < 1 {
		max = 1
	}
	q, ok := s.queues[name]
	if !ok {
		return nil, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	var out []Message
	for _, m := range q.msgs {
		if len(out) >= max {
			break
		}
		if !m.nextVisible.After(now) {
			v := m.view()
			v.PopReceipt = ""
			out = append(out, v)
		}
	}
	return out, nil
}

func (s *refStore) Delete(name, msgID, popReceipt string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	for i, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		if m.popReceipt == "" || m.popReceipt != popReceipt {
			return storecommon.Errf(storecommon.CodePopReceiptMismatch, 400, "pop receipt mismatch for %q", msgID)
		}
		q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
		return nil
	}
	return storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *refStore) ReplicaDelete(name, msgID string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	for i, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
		return nil
	}
	return storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *refStore) ReplicaUpdate(name, msgID string, body payload.Payload) error {
	if body.Len() > storecommon.MaxMessagePayload {
		return storecommon.Errf(storecommon.CodeMessageTooLarge, 400, "updated message too large")
	}
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	for _, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		m.body = body
		return nil
	}
	return storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *refStore) Update(name, msgID, popReceipt string, body payload.Payload, visibility time.Duration) (Message, error) {
	if body.Len() > storecommon.MaxMessagePayload {
		return Message{}, storecommon.Errf(storecommon.CodeMessageTooLarge, 400, "updated message too large")
	}
	if visibility == 0 {
		visibility = storecommon.DefaultVisibilityTimeout
	}
	if visibility < 0 || visibility > storecommon.MaxVisibilityTimeout {
		return Message{}, storecommon.Errf(storecommon.CodeInvalidVisibility, 400, "visibility %v out of range", visibility)
	}
	q, ok := s.queues[name]
	if !ok {
		return Message{}, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	for _, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		if m.popReceipt == "" || m.popReceipt != popReceipt {
			return Message{}, storecommon.Errf(storecommon.CodePopReceiptMismatch, 400, "pop receipt mismatch for %q", msgID)
		}
		m.body = body
		m.nextVisible = now.Add(visibility)
		s.popSeq++
		m.popReceipt = "pr-" + strconv.FormatUint(s.popSeq, 10)
		return m.view(), nil
	}
	return Message{}, storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *refStore) ApproximateCount(name string) (int, error) {
	q, ok := s.queues[name]
	if !ok {
		return 0, queueNotFound(name)
	}
	s.reap(q, s.clock.Now())
	return len(q.msgs), nil
}

func (s *refStore) pickVisible(q *refQueue, now time.Time) *refMessage {
	var window []*refMessage
	for _, m := range q.msgs {
		if m.nextVisible.After(now) {
			continue
		}
		window = append(window, m)
		if len(window) == s.cfg.NonFIFOWindow {
			break
		}
	}
	if len(window) == 0 {
		return nil
	}
	return window[s.rng.Intn(len(window))]
}

func (s *refStore) reap(q *refQueue, now time.Time) {
	kept := q.msgs[:0]
	for _, m := range q.msgs {
		if m.expires.After(now) {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(q.msgs); i++ {
		q.msgs[i] = nil
	}
	q.msgs = kept
}

func (s *refStore) Save(w *snap.Writer) {
	w.U64(s.rng.State())
	w.U64(s.popSeq)
	names := make([]string, 0, len(s.queues))
	for k := range s.queues {
		names = append(names, k)
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, name := range names {
		q := s.queues[name]
		w.String(q.name)
		w.Time(q.created)
		saveMeta(w, q.metadata)
		w.U64(q.nextID)
		w.Int(len(q.msgs))
		for _, m := range q.msgs {
			w.String(m.id)
			m.body.Save(w)
			w.Time(m.inserted)
			w.Time(m.expires)
			w.Time(m.nextVisible)
			w.Int(m.dequeueCount)
			w.String(m.popReceipt)
		}
	}
}

func (m *refMessage) view() Message {
	return Message{
		ID:           m.id,
		Body:         m.body,
		Inserted:     m.inserted,
		Expires:      m.expires,
		NextVisible:  m.nextVisible,
		DequeueCount: m.dequeueCount,
		PopReceipt:   m.popReceipt,
	}
}
