package sdk

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"azurebench/internal/queuexml"
)

// QueueClient talks to the queue service.
type QueueClient struct {
	c *Client
}

// Message is a dequeued or peeked queue message.
type Message = queuexml.Message

// Create creates a queue.
func (q *QueueClient) Create(name string) error {
	_, err := q.c.do(request{op: "Create", method: http.MethodPut, path: "/queue/" + esc(name)})
	return err
}

// Delete deletes a queue.
func (q *QueueClient) Delete(name string) error {
	_, err := q.c.do(request{op: "Delete", method: http.MethodDelete, path: "/queue/" + esc(name)})
	return err
}

// List lists queue names by prefix.
func (q *QueueClient) List(prefix string) ([]string, error) {
	vals := url.Values{}
	if prefix != "" {
		vals.Set("prefix", prefix)
	}
	resp, err := q.c.do(request{op: "List", method: http.MethodGet, path: "/queue/", query: vals})
	if err != nil {
		return nil, err
	}
	var out struct {
		Queues []string `xml:"Queues>Queue>Name"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad queue list: %w", err)
	}
	return out.Queues, nil
}

// Put inserts a message (ttl 0 means the service maximum, one week).
func (q *QueueClient) Put(name string, body []byte, ttl time.Duration) error {
	vals := url.Values{}
	if ttl > 0 {
		vals.Set("messagettl", strconv.Itoa(int(ttl.Seconds())))
	}
	_, err := q.c.do(request{op: "Put",
		method: http.MethodPost,
		path:   "/queue/" + esc(name) + "/messages",
		query:  vals,
		body:   queuexml.EncodeMessage(body),
	})
	return err
}

// Get dequeues up to max messages with the given visibility timeout.
func (q *QueueClient) Get(name string, max int, visibility time.Duration) ([]Message, error) {
	vals := url.Values{"numofmessages": {strconv.Itoa(max)}}
	if visibility > 0 {
		vals.Set("visibilitytimeout", strconv.Itoa(int(visibility.Seconds())))
	}
	return q.fetch(name, vals)
}

// Peek observes up to max messages without dequeuing them.
func (q *QueueClient) Peek(name string, max int) ([]Message, error) {
	vals := url.Values{"numofmessages": {strconv.Itoa(max)}, "peekonly": {"true"}}
	return q.fetch(name, vals)
}

func (q *QueueClient) fetch(name string, vals url.Values) ([]Message, error) {
	resp, err := q.c.do(request{op: "fetch",
		method: http.MethodGet,
		path:   "/queue/" + esc(name) + "/messages",
		query:  vals,
	})
	if err != nil {
		return nil, err
	}
	msgs, err := queuexml.DecodeMessageList(resp.body)
	if err != nil {
		return nil, fmt.Errorf("sdk: bad message list: %w", err)
	}
	return msgs, nil
}

// DeleteMessage deletes a dequeued message with its pop receipt.
func (q *QueueClient) DeleteMessage(name, msgID, popReceipt string) error {
	_, err := q.c.do(request{op: "DeleteMessage",
		method: http.MethodDelete,
		path:   "/queue/" + esc(name) + "/messages/" + esc(msgID),
		query:  url.Values{"popreceipt": {popReceipt}},
	})
	return err
}

// Update replaces a dequeued message's body and visibility; it returns
// the new pop receipt.
func (q *QueueClient) Update(name, msgID, popReceipt string, body []byte, visibility time.Duration) (string, error) {
	resp, err := q.c.do(request{op: "Update",
		method: http.MethodPut,
		path:   "/queue/" + esc(name) + "/messages/" + esc(msgID),
		query: url.Values{
			"popreceipt":        {popReceipt},
			"visibilitytimeout": {strconv.Itoa(int(visibility.Seconds()))},
		},
		body: queuexml.EncodeMessage(body),
	})
	if err != nil {
		return "", err
	}
	return resp.headers.Get("x-ms-popreceipt"), nil
}

// ApproximateCount returns the approximate message count.
func (q *QueueClient) ApproximateCount(name string) (int, error) {
	resp, err := q.c.do(request{op: "ApproximateCount", method: http.MethodGet, path: "/queue/" + esc(name)})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(resp.headers.Get("x-ms-approximate-messages-count"))
}

// Clear removes all messages.
func (q *QueueClient) Clear(name string) error {
	_, err := q.c.do(request{op: "Clear", method: http.MethodDelete, path: "/queue/" + esc(name) + "/messages"})
	return err
}
