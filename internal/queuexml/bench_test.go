package queuexml

import (
	"encoding/base64"
	"encoding/xml"
	"testing"

	"azurebench/internal/payload"
)

// The live workload's queue traffic: one 1 KB message per Put body and
// per Get response.

func BenchmarkEncodeMessage(b *testing.B) {
	body := payload.Synthetic(3, 1024).Materialize()
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeMessage(body)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xml.Marshal(putMessageXML{MessageText: base64.StdEncoding.EncodeToString(body)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeMessage(b *testing.B) {
	raw := EncodeMessage(payload.Synthetic(3, 1024).Materialize())
	for _, c := range []struct {
		name string
		fn   func([]byte) ([]byte, error)
	}{{"single-pass", DecodeMessage}, {"reference", decodeMessageReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeMessageList(b *testing.B) {
	msgs := testMessages()[:1]
	msgs[0].Body = payload.Bytes(msgs[0].Body.Materialize())
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodeMessageList(msgs)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceList(msgs)
		}
	})
}

func BenchmarkDecodeMessageList(b *testing.B) {
	raw := EncodeMessageList(testMessages()[:1])
	for _, c := range []struct {
		name string
		fn   func([]byte) ([]Message, error)
	}{{"single-pass", DecodeMessageList}, {"reference", decodeMessageListReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
