package rest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"azurebench/internal/storecommon"
)

// zeros is an endless reader of 'x' bytes, so an oversized body costs no
// memory on the sending side.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// Every body the server reads is capped, and a body one byte over its cap
// is refused with 413 RequestBodyTooLarge rather than truncated into a
// parse error. Bodies of unknown length (chunked) hit the same cap while
// being read; those cases run only for the small caps, since the blob cap
// would buffer 65 MB.
func TestOversizedBodiesGet413(t *testing.T) {
	srv := NewServer(Options{Cache: true, CacheNodes: 1, CacheNodeCapacity: 1 << 20})
	cases := []struct {
		name, method, path string
		limit              int64
	}{
		{"entity insert", http.MethodPost, "/table/tbl", 2 * storecommon.MaxEntitySize},
		{"entity replace", http.MethodPut, "/table/tbl(PartitionKey='p',RowKey='r')", 2 * storecommon.MaxEntitySize},
		{"entity merge", "MERGE", "/table/tbl(PartitionKey='p',RowKey='r')", 2 * storecommon.MaxEntitySize},
		{"message put", http.MethodPost, "/queue/que/messages", 2 * storecommon.MaxMessageSize},
		{"message update", http.MethodPut, "/queue/que/messages/que-msg-1?popreceipt=x", 2 * storecommon.MaxMessageSize},
		{"blob upload", http.MethodPut, "/blob/con/b", maxBodyBytes},
		{"block", http.MethodPut, "/blob/con/b?comp=block&blockid=AAAA", maxBodyBytes},
		{"block list", http.MethodPut, "/blob/con/b?comp=blocklist", maxBodyBytes},
		{"cache put", http.MethodPut, "/cache/c1/k", maxBodyBytes},
	}
	serve := func(method, path string, body io.Reader, contentLength int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, body)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for _, c := range cases {
		over := io.LimitReader(zeros{}, c.limit+1)
		rec := serve(c.method, c.path, over, c.limit+1)
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("x-ms-error-code") != "RequestBodyTooLarge" {
			t.Errorf("%s, declared length %d: status %d code %q, want 413 RequestBodyTooLarge",
				c.name, c.limit+1, rec.Code, rec.Header().Get("x-ms-error-code"))
		}
		if c.limit > 4*storecommon.MB {
			continue
		}
		rec = serve(c.method, c.path, io.LimitReader(zeros{}, c.limit+1), -1)
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("x-ms-error-code") != "RequestBodyTooLarge" {
			t.Errorf("%s, chunked %d bytes: status %d code %q, want 413 RequestBodyTooLarge",
				c.name, c.limit+1, rec.Code, rec.Header().Get("x-ms-error-code"))
		}
		// At the cap the body is read in full and fails its parse instead.
		rec = serve(c.method, c.path, io.LimitReader(zeros{}, c.limit), -1)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "InvalidInput") {
			t.Errorf("%s, chunked %d bytes: status %d body %q, want 400 InvalidInput",
				c.name, c.limit, rec.Code, rec.Body.String())
		}
	}
}
