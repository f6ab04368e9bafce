package odata

import (
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// liveEntity is the shape the live benchmark's table traffic carries: a
// version counter and a 1 KB binary body, as the server returns it.
func liveEntity() *tablestore.Entity {
	return &tablestore.Entity{
		PartitionKey: "p07",
		RowKey:       "r00427",
		Timestamp:    time.Date(2026, 10, 18, 7, 1, 2, 345678900, time.UTC),
		ETag:         `W/"datetime'2026-10-18T07:01:02.3456789Z';12345"`,
		Props: map[string]tablestore.Value{
			"v":    tablestore.Int64(42),
			"data": tablestore.Binary(payload.Bytes(payload.Synthetic(9, 1024).Materialize())),
		},
	}
}

func BenchmarkEncodeEntity(b *testing.B) {
	e := liveEntity()
	for _, c := range []struct {
		name string
		fn   func(*tablestore.Entity) ([]byte, error)
	}{{"single-pass", EncodeEntity}, {"reference", encodeEntityReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeEntity(b *testing.B) {
	raw, err := EncodeEntity(liveEntity())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fn   func([]byte) (*tablestore.Entity, error)
	}{{"single-pass", DecodeEntity}, {"reference", decodeEntityReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
