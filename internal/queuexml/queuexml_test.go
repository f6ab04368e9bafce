package queuexml

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"net/http"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/storecommon"
)

// queueMessagesListXML and queueMessageOut are the shapes the REST
// emulator marshalled with encoding/xml; EncodeMessageList must write
// the same bytes.
type queueMessagesListXML struct {
	XMLName  xml.Name          `xml:"QueueMessagesList"`
	Messages []queueMessageOut `xml:"QueueMessage"`
}

type queueMessageOut struct {
	MessageID       string `xml:"MessageId"`
	InsertionTime   string `xml:"InsertionTime"`
	ExpirationTime  string `xml:"ExpirationTime"`
	PopReceipt      string `xml:"PopReceipt,omitempty"`
	TimeNextVisible string `xml:"TimeNextVisible,omitempty"`
	DequeueCount    int    `xml:"DequeueCount"`
	MessageText     string `xml:"MessageText"`
}

func referenceList(msgs []queuestore.Message) []byte {
	var out queueMessagesListXML
	for _, m := range msgs {
		out.Messages = append(out.Messages, queueMessageOut{
			MessageID:       m.ID,
			InsertionTime:   m.Inserted.UTC().Format(http.TimeFormat),
			ExpirationTime:  m.Expires.UTC().Format(http.TimeFormat),
			PopReceipt:      m.PopReceipt,
			TimeNextVisible: m.NextVisible.UTC().Format(http.TimeFormat),
			DequeueCount:    m.DequeueCount,
			MessageText:     base64.StdEncoding.EncodeToString(m.Body.Materialize()),
		})
	}
	body, err := xml.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append([]byte(xml.Header), body...)
}

func testMessages() []queuestore.Message {
	at := time.Date(2026, 10, 18, 7, 1, 2, 345, time.UTC)
	return []queuestore.Message{
		{ID: "jobs-msg-1", Body: payload.Synthetic(1, 1024), Inserted: at, Expires: at.Add(7 * 24 * time.Hour),
			NextVisible: at.Add(30 * time.Second), DequeueCount: 1, PopReceipt: "pr-1-2"},
		{ID: "jobs-msg-2", Body: payload.Bytes(nil), Inserted: at.In(time.FixedZone("x", 3600))},
		{ID: `a"b'c&d<e>f` + "\t\n\r\x01é\xff", Body: payload.String("x"), PopReceipt: "]]> & <", DequeueCount: 1 << 40},
	}
}

func TestEncodeMessageListMatchesMarshalIndent(t *testing.T) {
	msgs := testMessages()
	for n := 0; n <= len(msgs); n++ {
		got, want := EncodeMessageList(msgs[:n]), referenceList(msgs[:n])
		if !bytes.Equal(got, want) {
			t.Errorf("%d messages:\ngot:  %q\nwant: %q", n, got, want)
		}
	}
}

func TestEncodeMessageMatchesMarshal(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 1024, 48 * 1024} {
		body := payload.Synthetic(uint64(n), int64(n)).Materialize()
		want, err := xml.Marshal(putMessageXML{MessageText: base64.StdEncoding.EncodeToString(body)})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeMessage(body); !bytes.Equal(got, want) {
			t.Errorf("%d bytes:\ngot:  %q\nwant: %q", n, got, want)
		}
	}
}

// The single-pass decoders must take the common shape themselves rather
// than defer it: a silent fall back to encoding/xml is correct but slow.
func TestSinglePassDecodesEncoderOutput(t *testing.T) {
	msgs := testMessages()[:2]
	list, ok := scanMessageList(EncodeMessageList(msgs))
	if !ok || len(list) != len(msgs) {
		t.Fatalf("scanMessageList(encoded list) = %d messages, %v", len(list), ok)
	}
	for i, m := range list {
		want := msgs[i]
		if m.ID != want.ID || m.PopReceipt != want.PopReceipt || m.DequeueCount != want.DequeueCount ||
			!m.NextVisible.Equal(want.NextVisible.Truncate(time.Second)) || !bytes.Equal(m.Body, want.Body.Materialize()) {
			t.Errorf("message %d = %+v, want %+v", i, m, want)
		}
	}
	if list, ok := scanMessageList(EncodeMessageList(nil)); !ok || list != nil {
		t.Errorf("empty list = %v, %v; want nil, true", list, ok)
	}
	body := []byte("hello, queue")
	raw := EncodeMessage(body)
	got, err := DecodeMessage(raw)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("DecodeMessage = %q, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = DecodeMessage(raw) }); allocs != 1 {
		t.Errorf("DecodeMessage allocates %v times, want 1 (the body)", allocs)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`<QueueMessage><MessageText>!!</MessageText></QueueMessage>`,
		`<Other><MessageText>AA==</MessageText></Other>`,
		`<QueueMessage><MessageText>AA=</MessageText></QueueMessage>`,
	} {
		_, err := DecodeMessage([]byte(src))
		if storecommon.CodeOf(err) != storecommon.CodeInvalidInput || storecommon.StatusOf(err) != 400 {
			t.Errorf("DecodeMessage(%q) err = %v, want 400 InvalidInput", src, err)
		}
	}
}
