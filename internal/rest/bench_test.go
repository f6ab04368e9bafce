package rest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"azurebench/internal/odata"
	"azurebench/internal/payload"
	"azurebench/internal/queuexml"
	"azurebench/internal/tablestore"
	"azurebench/internal/vclock"
)

// Handler-only rungs of the live benchmark ladder: requests go straight
// into Server.ServeHTTP through an httptest.ResponseRecorder, with no
// socket, so each measures REST decode, engine and encode. Bodies are the
// live workload's: an entity with a version and a 1 KB binary, and 1 KB
// messages.

const benchTable, benchQueue = "bench", "bench-q"

var benchBody = payload.Synthetic(7, 1024).Materialize()

func benchEntity() *tablestore.Entity {
	return &tablestore.Entity{PartitionKey: "p07", RowKey: "r00427",
		Props: map[string]tablestore.Value{
			"v":    tablestore.Int64(1),
			"data": tablestore.Binary(payload.Bytes(benchBody)),
		}}
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	srv := NewServer(Options{})
	if err := srv.Table.CreateTable(benchTable); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Table.Insert(benchTable, benchEntity()); err != nil {
		b.Fatal(err)
	}
	if err := srv.Queue.CreateQueue(benchQueue); err != nil {
		b.Fatal(err)
	}
	return srv
}

// serveBench runs one request per iteration; body, when set, is sent
// afresh each time.
func serveBench(b *testing.B, srv *Server, req *http.Request, body []byte, want int, between func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if body != nil {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("status %d, want %d: %s", rec.Code, want, rec.Body)
		}
		if between != nil {
			between(i)
		}
	}
}

func BenchmarkHandlerTableGet(b *testing.B) {
	srv := benchServer(b)
	req := httptest.NewRequest(http.MethodGet, "/table/bench(PartitionKey='p07',RowKey='r00427')", nil)
	serveBench(b, srv, req, nil, http.StatusOK, nil)
}

func BenchmarkHandlerTableReplace(b *testing.B) {
	srv := benchServer(b)
	body, err := odata.EncodeEntity(benchEntity())
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/table/bench(PartitionKey='p07',RowKey='r00427')", nil)
	req.Header.Set("If-Match", "*")
	serveBench(b, srv, req, body, http.StatusNoContent, nil)
}

func BenchmarkHandlerQueuePut(b *testing.B) {
	srv := benchServer(b)
	req := httptest.NewRequest(http.MethodPost, "/queue/bench-q/messages", nil)
	serveBench(b, srv, req, queuexml.EncodeMessage(benchBody), http.StatusCreated, func(i int) {
		if i%1024 == 1023 { // keep the queue shallow
			if err := srv.Queue.ClearMessages(benchQueue); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandlerQueueGet dequeues the same message each iteration: a
// manual clock steps past its visibility timeout in between, and a fresh
// message replaces it well before its time to live runs out.
func BenchmarkHandlerQueueGet(b *testing.B) {
	clock := &vclock.Manual{}
	srv := NewServer(Options{Clock: clock})
	if err := srv.Queue.CreateQueue(benchQueue); err != nil {
		b.Fatal(err)
	}
	refill := func() {
		if err := srv.Queue.ClearMessages(benchQueue); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Queue.Put(benchQueue, payload.Bytes(benchBody), 0); err != nil {
			b.Fatal(err)
		}
	}
	refill()
	req := httptest.NewRequest(http.MethodGet, "/queue/bench-q/messages?numofmessages=1&visibilitytimeout=1", nil)
	serveBench(b, srv, req, nil, http.StatusOK, func(i int) {
		clock.Advance(2 * time.Second)
		if i%1024 == 1023 {
			refill()
		}
	})
}
