package odata

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// FuzzDecodeEntity feeds arbitrary bytes to the wire decoder. It must
// agree with the encoding/json reference decoder: the same accept/reject
// result, the same error code and an equal entity. On everything it
// accepts it checks the canonical-form invariant: encoding a decoded
// entity must reach a fixed point in one step. DecodeEntity is the REST
// emulator's parse path for client-supplied JSON, so it must never panic,
// and whatever it accepts must survive a store/reload round-trip
// byte-for-byte (entities are persisted in encoded form).
func FuzzDecodeEntity(f *testing.F) {
	// Seed with one entity exercising every EDM type, plus hand-written
	// wire forms covering the inference and annotation paths.
	e := &tablestore.Entity{
		PartitionKey: "p1",
		RowKey:       "r1",
		Timestamp:    time.Date(2012, 7, 14, 3, 30, 0, 123456789, time.UTC),
		ETag:         `W/"datetime'2012-07-14T03%3A30%3A00Z'"`,
		Props: map[string]tablestore.Value{
			"s":   tablestore.String("hello"),
			"b":   tablestore.Bool(true),
			"i32": tablestore.Int32(-7),
			"i64": tablestore.Int64(1 << 40),
			"f":   tablestore.Double(3.5),
			"t":   tablestore.DateTime(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)),
			"g":   tablestore.GUID("c9da6455-213d-42c9-9a79-3e9149a57833"),
			"bin": tablestore.Binary(payload.Bytes([]byte{0x00, 0xff, 0x10})),
		},
	}
	seed, err := EncodeEntity(e)
	if err != nil {
		f.Fatalf("encoding seed entity: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r"}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","n":12,"x":1e300}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","n":"9","n@odata.type":"Edm.Int64"}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","Timestamp":"2020-02-29T23:59:59.5Z"}`))
	f.Add([]byte(`{"odata.etag":"abc","bin":"AAE=","bin@odata.type":"Edm.Binary"}`))
	f.Add([]byte(`{"bad@odata.type":"Edm.Nope","bad":1}`))
	f.Add([]byte(` {"PartitionKey" : "a\"b\\c\/d\n" , "RowKey":"r","odata.etag":"t","odata.etag":5} `))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","x":-0.5e-3,"x@odata.type":"Edm.Double","x@odata.type":"Edm.Int64"}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","n":true,"m":false,"z":-0,"big":1e400}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","u":"\u00e9","nul":null,"arr":[1]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntity(data)
		ref, refErr := decodeEntityReference(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeEntity err = %v, reference err = %v\ninput: %q", err, refErr, data)
		}
		if err != nil {
			if storecommon.CodeOf(err) != storecommon.CodeOf(refErr) || storecommon.StatusOf(err) != storecommon.StatusOf(refErr) {
				t.Fatalf("error %v, reference error %v\ninput: %q", err, refErr, data)
			}
			return // rejected input: only the no-panic guarantee applies
		}
		if diff := entityDiff(e, ref); diff != "" {
			t.Fatalf("DecodeEntity differs from the reference: %s\ninput: %q", diff, data)
		}
		raw, err := EncodeEntity(e)
		if err != nil {
			t.Fatalf("decoded entity does not re-encode: %v\ninput: %q", err, data)
		}
		e2, err := DecodeEntity(raw)
		if err != nil {
			t.Fatalf("encoder output does not decode: %v\nencoded: %q", err, raw)
		}
		raw2, err := EncodeEntity(e2)
		if err != nil {
			t.Fatalf("re-encoding round-tripped entity: %v", err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("encoding is not canonical after one round-trip:\nfirst:  %s\nsecond: %s\ninput:  %q", raw, raw2, data)
		}
	})
}

// FuzzEncodeEntity builds entities from fuzzed names and values and
// requires EncodeEntity to write the same bytes, or the same error, as
// the json.Marshal reference.
func FuzzEncodeEntity(f *testing.F) {
	f.Add("p", "r", "name", "a", "text", 1.5, int64(7), []byte{1, 2, 3}, int64(0))
	f.Add("p\"<>&", "r\x01\xff", "a@", "a@odata.typf", "\u2028é", -0.0, int64(-1<<63), []byte{}, int64(1e18))
	f.Add("", "", "", "a", "x", 1e21, int64(1<<31), []byte(nil), int64(-5))
	f.Add("pk", "rk", "d", "e", "", 1e-7, int64(0), []byte("xyz"), int64(123456789))
	f.Fuzz(func(t *testing.T, pk, rk, n1, n2, s string, fl float64, i int64, bin []byte, ts int64) {
		e := &tablestore.Entity{
			PartitionKey: pk,
			RowKey:       rk,
			Timestamp:    time.Unix(0, ts).UTC(),
			ETag:         s,
			Props: map[string]tablestore.Value{
				n1:        tablestore.String(s),
				n1 + "x":  tablestore.Double(fl),
				n1 + "@":  tablestore.Int64(i),
				n1 + "~":  tablestore.Int32(int32(i)),
				n2:        tablestore.Binary(payload.Bytes(bin)),
				n2 + "a":  tablestore.Bool(i%2 == 0),
				n2 + "b":  tablestore.GUID(s),
				n2 + "\n": tablestore.DateTime(time.Unix(i%(1<<35), ts%1e9)),
			},
		}
		for name := range e.Props {
			switch name {
			case "PartitionKey", "RowKey", "Timestamp", "odata.etag":
				return // the reference output depends on map order
			}
			if strings.HasSuffix(name, annotationSuffix) {
				return
			}
		}
		got, err := EncodeEntity(e)
		want, wantErr := encodeEntityReference(e)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("EncodeEntity err = %v, reference err = %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeEntity differs from the reference:\ngot:  %s\nwant: %s", got, want)
		}
	})
}

// entityDiff describes how two decoded entities differ ("" when equal).
func entityDiff(a, b *tablestore.Entity) string {
	switch {
	case a.PartitionKey != b.PartitionKey || a.RowKey != b.RowKey:
		return fmt.Sprintf("keys %q/%q vs %q/%q", a.PartitionKey, a.RowKey, b.PartitionKey, b.RowKey)
	case !a.Timestamp.Equal(b.Timestamp) || a.Timestamp.String() != b.Timestamp.String():
		return fmt.Sprintf("timestamp %v vs %v", a.Timestamp, b.Timestamp)
	case a.ETag != b.ETag:
		return fmt.Sprintf("etag %q vs %q", a.ETag, b.ETag)
	case len(a.Props) != len(b.Props):
		return fmt.Sprintf("%d props vs %d", len(a.Props), len(b.Props))
	}
	for name, av := range a.Props {
		bv, ok := b.Props[name]
		if !ok || !av.Equal(bv) || (av.Type == tablestore.TypeDouble && math.Signbit(av.F) != math.Signbit(bv.F)) {
			return fmt.Sprintf("prop %q: %#v vs %#v", name, av, bv)
		}
	}
	return ""
}
