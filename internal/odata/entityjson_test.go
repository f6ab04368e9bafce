package odata

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &tablestore.Entity{
		PartitionKey: "p",
		RowKey:       "r",
		Timestamp:    time.Date(2012, 5, 21, 1, 2, 3, 0, time.UTC),
		ETag:         `W/"tag"`,
		Props: map[string]tablestore.Value{
			"S":  tablestore.String("text"),
			"B":  tablestore.Bool(true),
			"I":  tablestore.Int32(-7),
			"L":  tablestore.Int64(1 << 40),
			"D":  tablestore.Double(2.5),
			"T":  tablestore.DateTime(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)),
			"G":  tablestore.GUID("0f8fad5b-d9cb-469f-a165-70867728950e"),
			"BB": tablestore.Binary(payload.Synthetic(1, 33)),
		},
	}
	raw, err := EncodeEntity(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEntity(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.PartitionKey != in.PartitionKey || out.RowKey != in.RowKey {
		t.Fatalf("keys = %s/%s", out.PartitionKey, out.RowKey)
	}
	if !out.Timestamp.Equal(in.Timestamp) || out.ETag != in.ETag {
		t.Fatalf("system props = %v / %q", out.Timestamp, out.ETag)
	}
	for name, want := range in.Props {
		if !out.Props[name].Equal(want) {
			t.Errorf("prop %s = %#v, want %#v", name, out.Props[name], want)
		}
	}
}

func TestDecodeUntypedNumbers(t *testing.T) {
	e, err := DecodeEntity([]byte(`{"PartitionKey":"p","RowKey":"r","Small":5,"Frac":1.5,"Big":3000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Props["Small"].Type != tablestore.TypeInt32 || e.Props["Small"].I != 5 {
		t.Fatalf("Small = %#v", e.Props["Small"])
	}
	if e.Props["Frac"].Type != tablestore.TypeDouble || e.Props["Frac"].F != 1.5 {
		t.Fatalf("Frac = %#v", e.Props["Frac"])
	}
	// Integral but out of int32 range: promoted to Double (no annotation).
	if e.Props["Big"].Type != tablestore.TypeDouble {
		t.Fatalf("Big = %#v", e.Props["Big"])
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		`not json`,
		`{"PartitionKey":1}`,
		`{"PartitionKey":"p","RowKey":"r","X":"zzz","X@odata.type":"Edm.Int64"}`,
		`{"PartitionKey":"p","RowKey":"r","X":"zz","X@odata.type":"Edm.Binary"}`,
		`{"PartitionKey":"p","RowKey":"r","X":"nope","X@odata.type":"Edm.DateTime"}`,
		`{"PartitionKey":"p","RowKey":"r","X":[1,2],"X@odata.type":""}`,
	}
	for _, src := range bad {
		if _, err := DecodeEntity([]byte(src)); err == nil {
			t.Errorf("DecodeEntity(%q) accepted", src)
		}
	}
}

func TestPropertyRoundTripInt64(t *testing.T) {
	f := func(v int64, pk, rk string) bool {
		pk = sanitizeKey(pk)
		rk = sanitizeKey(rk)
		in := &tablestore.Entity{PartitionKey: pk, RowKey: rk,
			Props: map[string]tablestore.Value{"V": tablestore.Int64(v)}}
		raw, err := EncodeEntity(in)
		if err != nil {
			return false
		}
		out, err := DecodeEntity(raw)
		if err != nil {
			return false
		}
		return out.Props["V"].Equal(in.Props["V"]) && out.PartitionKey == pk && out.RowKey == rk
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitizeKey(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 0x20 && r != '/' && r != '\\' && r != '#' && r != '?' && r != 0x7f {
			b.WriteRune(r)
		}
	}
	if b.Len() > 512 {
		return b.String()[:512]
	}
	return b.String()
}

// The single-pass decoder must take encoder output of the common shape
// itself rather than defer it: a silent fall back to encoding/json is
// correct but slow.
func TestSinglePassDecodesEncoderOutput(t *testing.T) {
	for _, e := range []*tablestore.Entity{liveEntity(), {PartitionKey: "p", RowKey: "r"}, {
		PartitionKey: `quote"back\slash`,
		RowKey:       "tab\tnew\nline",
		Props: map[string]tablestore.Value{
			"S": tablestore.String("text"), "B": tablestore.Bool(false), "I": tablestore.Int32(-7),
			"L": tablestore.Int64(-1 << 63), "D": tablestore.Double(-2.5e-10),
			"T": tablestore.DateTime(time.Date(2000, 1, 1, 0, 0, 0, 1, time.UTC)),
			"G": tablestore.GUID("0f8fad5b-d9cb-469f-a165-70867728950e"),
		},
	}} {
		raw, err := EncodeEntity(e)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeFlat(raw)
		if !ok {
			t.Fatalf("decodeFlat deferred on encoder output %s", raw)
		}
		want, err := decodeEntityReference(raw)
		if err != nil {
			t.Fatal(err)
		}
		if diff := entityDiff(got, want); diff != "" {
			t.Errorf("decodeFlat differs from the reference: %s\ninput: %s", diff, raw)
		}
	}
}

// Property names that collide with a system member or an annotation take
// the reference encoder, whose output the single-pass one cannot order.
func TestEncodeEntityCollisionsUseReference(t *testing.T) {
	for _, props := range []map[string]tablestore.Value{
		{"RowKey": tablestore.String("shadow")},
		{"x@odata.type": tablestore.String("Edm.Int32"), "y": tablestore.Int32(1)},
		{"odata.etag": tablestore.Int64(3)},
	} {
		e := &tablestore.Entity{PartitionKey: "p", RowKey: "r", ETag: "t", Props: props}
		got, err := EncodeEntity(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeEntityReference(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("EncodeEntity = %s, reference %s", got, want)
		}
	}
}
