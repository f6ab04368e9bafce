package queuexml

import (
	"bytes"
	"testing"

	"azurebench/internal/storecommon"
)

// FuzzDecodeMessage requires DecodeMessage to agree with the encoding/xml
// reference on every input: the same accept/reject result, the same
// error code and the same payload bytes.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(EncodeMessage([]byte("hello")))
	f.Add(EncodeMessage(nil))
	f.Add([]byte(`<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>trailing`))
	f.Add([]byte("<QueueMessage><MessageText>aG\nk=</MessageText></QueueMessage>"))
	f.Add([]byte(`<QueueMessage><MessageText>aGk</MessageText></QueueMessage>`))
	f.Add([]byte(`<?xml version="1.0"?><QueueMessage><MessageText>aGk=</MessageText><MessageText>AA==</MessageText></QueueMessage>`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := DecodeMessage(raw)
		want, wantErr := decodeMessageReference(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, reference err = %v\ninput: %q", err, wantErr, raw)
		}
		if err != nil {
			if storecommon.CodeOf(err) != storecommon.CodeOf(wantErr) || storecommon.StatusOf(err) != storecommon.StatusOf(wantErr) {
				t.Fatalf("err = %v, reference err = %v\ninput: %q", err, wantErr, raw)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("payload %q, reference %q\ninput: %q", got, want, raw)
		}
	})
}

// FuzzDecodeMessageList requires DecodeMessageList to agree with the
// encoding/xml reference on every input: the same accept/reject result
// and, message by message, the same IDs, pop receipts, dequeue counts,
// next-visible times and payload bytes.
func FuzzDecodeMessageList(f *testing.F) {
	msgs := testMessages()
	for n := 0; n <= len(msgs); n++ {
		f.Add(EncodeMessageList(msgs[:n]))
	}
	f.Add([]byte("<QueueMessagesList><QueueMessage><MessageId>a</MessageId><MessageId>b</MessageId>" +
		"<DequeueCount>007</DequeueCount><Extra>x</Extra></QueueMessage></QueueMessagesList>"))
	f.Add([]byte("<Other><QueueMessage><DequeueCount> 3 </DequeueCount><MessageText>AA==</MessageText></QueueMessage></Other>"))
	f.Add([]byte("<QueueMessagesList>\r\n\t<QueueMessage><TimeNextVisible>Mon, 02 Jan 2006 15:04:05 GMT</TimeNextVisible></QueueMessage></QueueMessagesList>  "))
	f.Add([]byte("<QueueMessagesList><QueueMessage><DequeueCount>-1</DequeueCount><MessageText>A</MessageText></QueueMessage></QueueMessagesList>"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := DecodeMessageList(raw)
		want, wantErr := decodeMessageListReference(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, reference err = %v\ninput: %q", err, wantErr, raw)
		}
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%d messages (nil %v), reference %d (nil %v)\ninput: %q", len(got), got == nil, len(want), want == nil, raw)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.PopReceipt != w.PopReceipt || g.DequeueCount != w.DequeueCount ||
				!g.NextVisible.Equal(w.NextVisible) || !bytes.Equal(g.Body, w.Body) {
				t.Fatalf("message %d = %+v, reference %+v\ninput: %q", i, g, w, raw)
			}
		}
	})
}
