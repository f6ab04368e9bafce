// Package queuexml implements the XML wire bodies of the queue service
// shared by the REST emulator and the client SDK: the Put/Update Message
// request body and the Get/Peek Messages response list.
//
// Both directions run in one pass over the bytes. The encoders write
// exactly what encoding/xml writes for the reference shapes below. The
// decoders parse the layout the encoders write, with plain ASCII element
// text, and hand any other input to encoding/xml, so what is accepted,
// what it decodes to and every error are the reference's.
package queuexml

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"azurebench/internal/queuestore"
	"azurebench/internal/storecommon"
)

// putMessageXML is the reference shape of the Put/Update Message body.
type putMessageXML struct {
	XMLName     xml.Name `xml:"QueueMessage"`
	MessageText string   `xml:"MessageText"`
}

// messagesListXML is the reference shape a client decodes a Get/Peek
// Messages response into. It names no root element, so any root is
// accepted, and it ignores the insertion and expiration times.
type messagesListXML struct {
	Messages []struct {
		MessageID       string `xml:"MessageId"`
		PopReceipt      string `xml:"PopReceipt"`
		DequeueCount    int    `xml:"DequeueCount"`
		TimeNextVisible string `xml:"TimeNextVisible"`
		MessageText     string `xml:"MessageText"`
	} `xml:"QueueMessage"`
}

// Message is one message of a Get/Peek Messages response, as a client
// sees it.
type Message struct {
	ID           string
	Body         []byte
	PopReceipt   string
	DequeueCount int
	NextVisible  time.Time
}

const (
	putOpen  = "<QueueMessage><MessageText>"
	putClose = "</MessageText></QueueMessage>"
)

// EncodeMessage renders a Put/Update Message body carrying body, as
// xml.Marshal renders putMessageXML. Base64 text needs no XML escaping.
func EncodeMessage(body []byte) []byte {
	out := make([]byte, 0, len(putOpen)+base64.StdEncoding.EncodedLen(len(body))+len(putClose))
	out = append(out, putOpen...)
	out = base64.StdEncoding.AppendEncode(out, body)
	return append(out, putClose...)
}

// DecodeMessage returns the decoded message text of a Put/Update Message
// body. Errors are InvalidInput storage errors.
func DecodeMessage(raw []byte) ([]byte, error) {
	if text, ok := bytes.CutPrefix(raw, []byte(putOpen)); ok {
		if text, ok := bytes.CutSuffix(text, []byte(putClose)); ok && isBase64Text(text) {
			data := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
			if n, err := base64.StdEncoding.Decode(data, text); err == nil {
				return data[:n], nil
			}
		}
	}
	return decodeMessageReference(raw)
}

// decodeMessageReference decodes any Put/Update Message body through
// encoding/xml.
func decodeMessageReference(raw []byte) ([]byte, error) {
	var msg putMessageXML
	if err := xml.Unmarshal(raw, &msg); err != nil {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad message XML: %v", err)
	}
	data, err := base64.StdEncoding.DecodeString(msg.MessageText)
	if err != nil {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "message text is not base64: %v", err)
	}
	return data, nil
}

// EncodeMessageList renders a Get/Peek Messages response: xml.Header
// followed by the list as xml.MarshalIndent(v, "", "  ") renders it.
func EncodeMessageList(msgs []queuestore.Message) []byte {
	size := len(xml.Header) + 64
	for i := range msgs {
		size += 400 + len(msgs[i].ID) + len(msgs[i].PopReceipt) + int(msgs[i].Body.Len())*4/3
	}
	out := make([]byte, 0, size)
	out = append(out, xml.Header...)
	out = append(out, "<QueueMessagesList>"...)
	for i := range msgs {
		m := &msgs[i]
		out = append(out, "\n  <QueueMessage>"...)
		out = appendElem(out, "MessageId", m.ID)
		out = appendTimeElem(out, "InsertionTime", m.Inserted)
		out = appendTimeElem(out, "ExpirationTime", m.Expires)
		if m.PopReceipt != "" {
			out = appendElem(out, "PopReceipt", m.PopReceipt)
		}
		out = appendTimeElem(out, "TimeNextVisible", m.NextVisible)
		out = append(out, "\n    <DequeueCount>"...)
		out = strconv.AppendInt(out, int64(m.DequeueCount), 10)
		out = append(out, "</DequeueCount>\n    <MessageText>"...)
		out = base64.StdEncoding.AppendEncode(out, m.Body.View())
		out = append(out, "</MessageText>\n  </QueueMessage>"...)
	}
	if len(msgs) > 0 {
		out = append(out, '\n')
	}
	return append(out, "</QueueMessagesList>"...)
}

// appendElem writes one indented child element. Text of plain ASCII is
// written as is; anything else goes through xml.EscapeText, which is the
// escaping xml.Marshal applies.
func appendElem(out []byte, name, text string) []byte {
	out = append(out, "\n    <"...)
	out = append(out, name...)
	out = append(out, '>')
	plain := true
	for i := 0; i < len(text) && plain; i++ {
		plain = plainText[text[i]]
	}
	if plain {
		out = append(out, text...)
	} else {
		w := bytes.NewBuffer(out)
		_ = xml.EscapeText(w, []byte(text)) // a bytes.Buffer write cannot fail
		out = w.Bytes()
	}
	out = append(out, "</"...)
	out = append(out, name...)
	return append(out, '>')
}

// appendTimeElem writes a time child element in the HTTP date format,
// whose text never needs escaping.
func appendTimeElem(out []byte, name string, t time.Time) []byte {
	out = append(out, "\n    <"...)
	out = append(out, name...)
	out = append(out, '>')
	out = t.UTC().AppendFormat(out, http.TimeFormat)
	out = append(out, "</"...)
	out = append(out, name...)
	return append(out, '>')
}

// DecodeMessageList parses a Get/Peek Messages response. A list with no
// messages decodes to nil.
func DecodeMessageList(raw []byte) ([]Message, error) {
	if msgs, ok := scanMessageList(raw); ok {
		return msgs, nil
	}
	return decodeMessageListReference(raw)
}

// decodeMessageListReference decodes any Get/Peek Messages response
// through encoding/xml.
func decodeMessageListReference(raw []byte) ([]Message, error) {
	var list messagesListXML
	if err := xml.Unmarshal(raw, &list); err != nil {
		return nil, err
	}
	var msgs []Message
	for _, m := range list.Messages {
		body, err := base64.StdEncoding.DecodeString(m.MessageText)
		if err != nil {
			return nil, fmt.Errorf("bad message text: %w", err)
		}
		nv, _ := time.Parse(http.TimeFormat, m.TimeNextVisible) // an unreadable time reads as zero
		msgs = append(msgs, Message{
			ID:           m.MessageID,
			Body:         body,
			PopReceipt:   m.PopReceipt,
			DequeueCount: m.DequeueCount,
			NextVisible:  nv,
		})
	}
	return msgs, nil
}

// scanMessageList decodes the layout EncodeMessageList writes: an
// optional xml.Header, then a QueueMessagesList root whose children are
// QueueMessage elements, whose children in turn are elements holding
// plain text; whitespace may separate elements. It reports false, and
// the caller defers to encoding/xml, for anything else and for any value
// the reference would reject.
func scanMessageList(raw []byte) ([]Message, bool) {
	s := listScanner{raw: bytes.TrimPrefix(raw, []byte(xml.Header))}
	if !s.tag("<QueueMessagesList>") {
		return nil, false
	}
	var msgs []Message
	for {
		s.space()
		if s.tag("</QueueMessagesList>") {
			s.space()
			return msgs, len(s.raw) == 0
		}
		if !s.tag("<QueueMessage>") {
			return nil, false
		}
		var m Message
		var text, nextVisible []byte
		for {
			s.space()
			if s.tag("</QueueMessage>") {
				break
			}
			name, val, ok := s.element()
			if !ok {
				return nil, false
			}
			switch string(name) {
			case "MessageId":
				m.ID = string(val)
			case "PopReceipt":
				m.PopReceipt = string(val)
			case "DequeueCount":
				if m.DequeueCount, ok = parseCount(val); !ok {
					return nil, false
				}
			case "TimeNextVisible":
				nextVisible = val
			case "MessageText":
				text = val
			}
		}
		m.Body = make([]byte, base64.StdEncoding.DecodedLen(len(text)))
		n, err := base64.StdEncoding.Decode(m.Body, text)
		if err != nil {
			return nil, false
		}
		m.Body = m.Body[:n]
		m.NextVisible, _ = time.Parse(http.TimeFormat, string(nextVisible)) // as the reference
		msgs = append(msgs, m)
	}
}

// listScanner walks a message list left to right.
type listScanner struct{ raw []byte }

// tag consumes lit if the input starts with it.
func (s *listScanner) tag(lit string) bool {
	rest, ok := bytes.CutPrefix(s.raw, []byte(lit))
	if ok {
		s.raw = rest
	}
	return ok
}

func (s *listScanner) space() {
	s.raw = bytes.TrimLeft(s.raw, " \t\r\n")
}

// element consumes <name>text</name> where name is ASCII letters and
// text is plain.
func (s *listScanner) element() (name, text []byte, ok bool) {
	raw := s.raw
	if len(raw) == 0 || raw[0] != '<' {
		return nil, nil, false
	}
	i := 1
	for i < len(raw) && (raw[i]|0x20 >= 'a' && raw[i]|0x20 <= 'z') {
		i++
	}
	if i == 1 || i == len(raw) || raw[i] != '>' {
		return nil, nil, false
	}
	name = raw[1:i]
	j := i + 1
	for j < len(raw) && plainText[raw[j]] {
		j++
	}
	text = raw[i+1 : j]
	rest := raw[j:]
	if len(rest) < len(name)+3 || rest[0] != '<' || rest[1] != '/' ||
		!bytes.Equal(rest[2:2+len(name)], name) || rest[2+len(name)] != '>' {
		return nil, nil, false
	}
	s.raw = rest[len(name)+3:]
	return name, text, true
}

// parseCount reads a dequeue count of up to 9 decimal digits, which
// cannot overflow an int of any width.
func parseCount(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// isBase64Text reports whether b holds only base64 alphabet and padding
// bytes, which XML reads as themselves.
func isBase64Text(b []byte) bool {
	for _, c := range b {
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '+' || c == '/' || c == '=') {
			return false
		}
	}
	return true
}

// plainText marks the bytes element text may hold in the single-pass
// grammar: printable ASCII other than the markup characters '<', '&' and
// the quotes and '>' the encoder escapes.
var plainText = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '<' && c != '&' && c != '"' && c != '\'' && c != '>'
	}
	return t
}()
