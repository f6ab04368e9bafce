// Package odata implements the JSON wire representation of table entities
// shared by the REST emulator and the client SDK: property values carry
// EDM type annotations ("Prop@odata.type": "Edm.Int64") the way the Azure
// Table service serialises them.
//
// Both directions run in one pass over the bytes. EncodeEntity writes
// exactly what json.Marshal of the equivalent map writes. DecodeEntity
// parses the common shape itself and hands any other input to the
// encoding/json reference decoder (reference.go), so what is accepted,
// what it decodes to and every error are the reference's.
package odata

import (
	"bytes"
	"cmp"
	"encoding/base64"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// timestampFormat is the wire format of Edm.DateTime values.
const timestampFormat = time.RFC3339Nano

// annotationSuffix marks a property's EDM type annotation member.
const annotationSuffix = "@odata.type"

// EncodeEntity renders an entity as a JSON object.
func EncodeEntity(e *tablestore.Entity) ([]byte, error) {
	// vals holds every value a member renders; its capacity is fixed so
	// the fields' pointers into it stay valid.
	vals := make([]tablestore.Value, 0, 4+len(e.Props))
	fs := make([]field, 0, 4+2*len(e.Props))
	add := func(name string, v tablestore.Value, annotated bool) {
		vals = append(vals, v)
		fs = append(fs, field{name: name, v: &vals[len(vals)-1]})
		if annotated {
			fs = append(fs, field{name: name, annotation: true, v: &vals[len(vals)-1]})
		}
	}
	add("PartitionKey", tablestore.String(e.PartitionKey), false)
	add("RowKey", tablestore.String(e.RowKey), false)
	if !e.Timestamp.IsZero() {
		add("Timestamp", tablestore.DateTime(e.Timestamp), false)
	}
	if e.ETag != "" {
		add("odata.etag", tablestore.String(e.ETag), false)
	}
	size := 64 + len(e.PartitionKey) + len(e.RowKey) + len(e.ETag)
	for name, v := range e.Props {
		switch name {
		case "PartitionKey", "RowKey", "Timestamp", "odata.etag":
			return encodeEntityReference(e)
		}
		if strings.HasSuffix(name, annotationSuffix) {
			return encodeEntityReference(e)
		}
		switch v.Type {
		case tablestore.TypeString, tablestore.TypeBool, tablestore.TypeInt32:
			add(name, v, false)
		case tablestore.TypeDouble, tablestore.TypeInt64, tablestore.TypeDateTime,
			tablestore.TypeGUID, tablestore.TypeBinary:
			add(name, v, true)
		default:
			continue // the reference writes nothing for an unknown type
		}
		size += 2*len(name) + 48 + len(v.S) + int(v.Bin.Len())*4/3
	}
	slices.SortFunc(fs, compareFields)

	out := make([]byte, 0, size)
	out = append(out, '{')
	for i, f := range fs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '"')
		out = appendStringBody(out, f.name)
		if f.annotation {
			out = append(out, annotationSuffix...)
		}
		out = append(out, '"', ':')
		if f.annotation {
			out = append(out, '"')
			out = append(out, f.v.Type.String()...)
			out = append(out, '"')
			continue
		}
		var err error
		if out, err = appendValue(out, f.v); err != nil {
			return nil, err
		}
	}
	return append(out, '}'), nil
}

// field is one member of an encoded entity: a property (or system
// property) value, or the EDM type annotation of property name.
type field struct {
	name       string
	annotation bool // the member is name+annotationSuffix
	v          *tablestore.Value
}

// compareFields orders members by name the way json.Marshal sorts map
// keys (bytewise), without building the annotation names.
func compareFields(a, b field) int {
	as, bs := a.name, b.name
	var asuf, bsuf string
	if a.annotation {
		asuf = annotationSuffix
	}
	if b.annotation {
		bsuf = annotationSuffix
	}
	for {
		if as == "" {
			as, asuf = asuf, ""
		}
		if bs == "" {
			bs, bsuf = bsuf, ""
		}
		if as == "" || bs == "" {
			return cmp.Compare(len(as), len(bs))
		}
		n := min(len(as), len(bs))
		if c := strings.Compare(as[:n], bs[:n]); c != 0 {
			return c
		}
		as, bs = as[n:], bs[n:]
	}
}

// appendValue writes a property value as the reference map holds it.
func appendValue(out []byte, v *tablestore.Value) ([]byte, error) {
	switch v.Type {
	case tablestore.TypeString, tablestore.TypeGUID:
		return appendString(out, v.S), nil
	case tablestore.TypeBool:
		return strconv.AppendBool(out, v.B), nil
	case tablestore.TypeInt32:
		return strconv.AppendInt(out, v.I, 10), nil
	case tablestore.TypeDouble:
		// encoding/json owns float formatting and its NaN/Inf errors.
		raw, err := json.Marshal(v.F)
		if err != nil {
			return nil, err
		}
		return append(out, raw...), nil
	case tablestore.TypeInt64:
		out = append(out, '"')
		out = strconv.AppendInt(out, v.I, 10)
	case tablestore.TypeDateTime:
		out = append(out, '"')
		out = v.T.UTC().AppendFormat(out, timestampFormat)
	case tablestore.TypeBinary:
		out = append(out, '"')
		out = base64.StdEncoding.AppendEncode(out, v.Bin.View())
	}
	return append(out, '"'), nil
}

// appendString writes s as a JSON string, escaped as json.Marshal does.
func appendString(out []byte, s string) []byte {
	out = append(out, '"')
	out = appendStringBody(out, s)
	return append(out, '"')
}

// appendStringBody writes the escaped contents of a JSON string. Printable
// ASCII is escaped here; any other byte sends the whole string through
// json.Marshal, which owns control-character and UTF-8 handling.
func appendStringBody(out []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(out, raw[1:len(raw)-1]...)
		}
	}
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '<':
			esc = `\u003c`
		case '>':
			esc = `\u003e`
		case '&':
			esc = `\u0026`
		default:
			continue
		}
		out = append(out, s[start:i]...)
		out = append(out, esc...)
		start = i + 1
	}
	return append(out, s[start:]...)
}

// DecodeEntity parses a JSON object into an entity.
func DecodeEntity(raw []byte) (*tablestore.Entity, error) {
	if e, ok := decodeFlat(raw); ok {
		return e, nil
	}
	return decodeEntityReference(raw)
}

// decodeFlat decodes a flat object whose members are all strings, numbers
// or booleans. It reports false, and the caller defers to the reference,
// for any input outside that grammar and for any value the reference
// would reject, so it never has to produce an error itself. Members apply
// in input order, which gives the reference's last-wins duplicates.
func decodeFlat(raw []byte) (*tablestore.Entity, bool) {
	var buf [16]member
	ms, ok := scanObject(raw, buf[:0])
	if !ok {
		return nil, false
	}
	var types map[string][]byte
	for _, m := range ms {
		name, isType := bytes.CutSuffix(m.key, []byte(annotationSuffix))
		if !isType {
			continue
		}
		if m.kind != '"' {
			return nil, false
		}
		if types == nil {
			types = map[string][]byte{}
		}
		types[string(name)] = m.val
	}
	e := &tablestore.Entity{Props: make(map[string]tablestore.Value, len(ms)-len(types))}
	for _, m := range ms {
		if bytes.Contains(m.key, []byte(annotationSuffix)) {
			continue
		}
		switch string(m.key) {
		case "odata.etag":
			// The reference ignores a non-string tag.
			e.ETag = ""
			if m.kind == '"' {
				e.ETag = string(m.val)
			}
		case "PartitionKey":
			if m.kind != '"' {
				return nil, false
			}
			e.PartitionKey = string(m.val)
		case "RowKey":
			if m.kind != '"' {
				return nil, false
			}
			e.RowKey = string(m.val)
		case "Timestamp":
			if m.kind != '"' {
				return nil, false
			}
			t, err := time.Parse(timestampFormat, string(m.val))
			if err != nil {
				return nil, false
			}
			e.Timestamp = t
		default:
			v, ok := flatValue(m, types[string(m.key)])
			if !ok {
				return nil, false
			}
			e.Props[string(m.key)] = v
		}
	}
	return e, true
}

// flatValue mirrors the reference decodeValue on a scanned member.
func flatValue(m member, edmType []byte) (tablestore.Value, bool) {
	switch string(edmType) {
	case "Edm.Int64":
		if m.kind != '"' {
			return tablestore.Value{}, false
		}
		n, err := strconv.ParseInt(string(m.val), 10, 64)
		return tablestore.Int64(n), err == nil
	case "Edm.Double":
		if m.kind != 'n' {
			return tablestore.Value{}, false
		}
		f, err := strconv.ParseFloat(string(m.val), 64)
		return tablestore.Double(f), err == nil
	case "Edm.DateTime":
		if m.kind != '"' {
			return tablestore.Value{}, false
		}
		t, err := time.Parse(timestampFormat, string(m.val))
		return tablestore.DateTime(t), err == nil
	case "Edm.Guid":
		return tablestore.GUID(string(m.val)), m.kind == '"'
	case "Edm.Binary":
		if m.kind != '"' {
			return tablestore.Value{}, false
		}
		b := make([]byte, base64.StdEncoding.DecodedLen(len(m.val)))
		n, err := base64.StdEncoding.Decode(b, m.val)
		return tablestore.Binary(payload.Bytes(b[:n])), err == nil
	case "", "Edm.String", "Edm.Boolean", "Edm.Int32":
		switch m.kind {
		case '"':
			return tablestore.String(string(m.val)), true
		case 't', 'f':
			return tablestore.Bool(m.kind == 't'), true
		}
		f, err := strconv.ParseFloat(string(m.val), 64)
		if err != nil {
			return tablestore.Value{}, false
		}
		if f == float64(int64(f)) && f >= -1<<31 && f < 1<<31 {
			return tablestore.Int32(int32(f)), true
		}
		return tablestore.Double(f), true
	}
	return tablestore.Value{}, false
}

// member is one name/value pair of a scanned object.
type member struct {
	key []byte
	// val is a string's unescaped contents, or a number's literal text.
	val []byte
	// kind is '"' (string), 'n' (number), 't' (true) or 'f' (false).
	kind byte
}

// scanObject parses raw as one JSON object of string, number and boolean
// members, appending them to ms. It reports false for anything else:
// nesting, null, \u escapes, bytes outside printable ASCII in strings,
// malformed JSON, or anything after the object but whitespace.
func scanObject(raw []byte, ms []member) ([]member, bool) {
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] != '{' {
		return nil, false
	}
	i = skipSpace(raw, i+1)
	if i < len(raw) && raw[i] == '}' {
		return ms, skipSpace(raw, i+1) == len(raw)
	}
	for {
		var m member
		var ok bool
		if m.key, i, ok = scanString(raw, i); !ok {
			return nil, false
		}
		i = skipSpace(raw, i)
		if i == len(raw) || raw[i] != ':' {
			return nil, false
		}
		i = skipSpace(raw, i+1)
		if i == len(raw) {
			return nil, false
		}
		switch c := raw[i]; {
		case c == '"':
			m.kind = '"'
			m.val, i, ok = scanString(raw, i)
		case c == 't':
			m.kind, ok = 't', hasPrefixAt(raw, i, "true")
			i += len("true")
		case c == 'f':
			m.kind, ok = 'f', hasPrefixAt(raw, i, "false")
			i += len("false")
		default:
			m.kind = 'n'
			var end int
			if end, ok = scanNumber(raw, i); ok {
				m.val, i = raw[i:end], end
			}
		}
		if !ok {
			return nil, false
		}
		ms = append(ms, m)
		i = skipSpace(raw, i)
		if i == len(raw) {
			return nil, false
		}
		switch raw[i] {
		case ',':
			i = skipSpace(raw, i+1)
		case '}':
			return ms, skipSpace(raw, i+1) == len(raw)
		default:
			return nil, false
		}
	}
}

func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\r' || raw[i] == '\t') {
		i++
	}
	return i
}

func hasPrefixAt(raw []byte, i int, lit string) bool {
	return len(raw)-i >= len(lit) && string(raw[i:i+len(lit)]) == lit
}

// plainByte marks the bytes a string may hold unescaped in the
// single-pass grammar: printable ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString parses the string starting at raw[i] and returns its
// contents and the index after the closing quote. Contents without
// escapes alias raw.
func scanString(raw []byte, i int) (s []byte, next int, ok bool) {
	if i == len(raw) || raw[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	escaped := false
	for j := start; j < len(raw); {
		for j < len(raw) && plainByte[raw[j]] {
			j++
		}
		switch {
		case j == len(raw):
		case raw[j] == '"':
			if !escaped {
				return raw[start:j], j + 1, true
			}
			return unescape(raw[start:j]), j + 1, true
		case raw[j] == '\\' && j+1 < len(raw) && unescapeByte(raw[j+1]) != 0:
			escaped = true
			j += 2
		default:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// unescapeByte maps the byte after a backslash to the byte it stands for,
// or 0 for \u and invalid escapes.
func unescapeByte(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// unescape decodes the single-byte escapes scanString admitted.
func unescape(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for j := 0; j < len(s); j++ {
		if s[j] == '\\' {
			j++
			out = append(out, unescapeByte(s[j]))
			continue
		}
		out = append(out, s[j])
	}
	return out
}

// scanNumber matches the JSON number grammar at raw[i] and returns the
// index after it.
func scanNumber(raw []byte, i int) (int, bool) {
	if i < len(raw) && raw[i] == '-' {
		i++
	}
	switch {
	case i == len(raw):
		return 0, false
	case raw[i] == '0':
		i++
	case raw[i] >= '1' && raw[i] <= '9':
		i = skipDigits(raw, i)
	default:
		return 0, false
	}
	if i < len(raw) && raw[i] == '.' {
		j := skipDigits(raw, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(raw) && (raw[i] == 'e' || raw[i] == 'E') {
		i++
		if i < len(raw) && (raw[i] == '+' || raw[i] == '-') {
			i++
		}
		j := skipDigits(raw, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}

func skipDigits(raw []byte, i int) int {
	for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
		i++
	}
	return i
}
