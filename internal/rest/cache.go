package rest

import (
	"net/http"
	"strconv"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
)

// handleCache routes /cache/{name}/{key}. The caching service predates a
// public REST protocol (AppFabric spoke a binary protocol), so this is an
// emulator-native dialect:
//
//	PUT    /cache/{name}/{key}?ttl=SECONDS[&version=V][&lock=L]  body = value
//	GET    /cache/{name}/{key}[?lock=SECONDS]
//	DELETE /cache/{name}/{key}[?lock=L]  (lock releases without delete when unlock=true)
//	PUT    /cache/{name}                 (create named cache)
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if !s.throttle.allow("", "") {
		writeBusy(w)
		return
	}
	if s.CacheCluster == nil {
		writeError(w, storecommon.Errf(storecommon.CodeResourceNotFound, 404, "caching service not enabled"))
		return
	}
	parts := pathParts(r, "/cache/")
	switch len(parts) {
	case 1:
		if r.Method != http.MethodPut {
			writeMethodNotAllowed(w, r)
			return
		}
		s.CacheCluster.CreateCache(parts[0])
		w.WriteHeader(http.StatusCreated)
	case 2:
		s.handleCacheItem(w, r, parts[0], parts[1])
	default:
		writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "missing cache name"))
	}
}

func (s *Server) handleCacheItem(w http.ResponseWriter, r *http.Request, cache, key string) {
	q := r.URL.Query()
	switch r.Method {
	case http.MethodPut:
		body, err := readLimited(w, r, maxBodyBytes)
		if err != nil {
			writeError(w, err)
			return
		}
		ttl := time.Duration(intOr(q.Get("ttl"), 0)) * time.Second
		var version uint64
		switch {
		case q.Get("lock") != "":
			version, err = s.CacheCluster.PutAndUnlock(cache, key, payload.Bytes(body), q.Get("lock"), ttl)
		case q.Get("version") != "":
			var v uint64
			v, err = strconv.ParseUint(q.Get("version"), 10, 64)
			if err == nil {
				version, err = s.CacheCluster.PutIfVersion(cache, key, payload.Bytes(body), v, ttl)
			}
		default:
			version, err = s.CacheCluster.Put(cache, key, payload.Bytes(body), ttl)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("x-ms-cache-version", strconv.FormatUint(version, 10))
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		if lockSecs := intOr(q.Get("lock"), 0); lockSecs > 0 {
			item, lock, err := s.CacheCluster.GetAndLock(cache, key, time.Duration(lockSecs)*time.Second)
			if err != nil {
				writeError(w, err)
				return
			}
			w.Header().Set("x-ms-cache-version", strconv.FormatUint(item.Version, 10))
			w.Header().Set("x-ms-cache-lock", lock)
			w.WriteHeader(http.StatusOK)
			w.Write(item.Value.Materialize())
			return
		}
		item, ok, err := s.CacheCluster.Get(cache, key)
		if err != nil {
			writeError(w, err)
			return
		}
		if !ok {
			writeError(w, storecommon.Errf(storecommon.CodeResourceNotFound, 404, "cache miss for %q", key))
			return
		}
		w.Header().Set("x-ms-cache-version", strconv.FormatUint(item.Version, 10))
		w.WriteHeader(http.StatusOK)
		w.Write(item.Value.Materialize())
	case http.MethodDelete:
		if q.Get("unlock") == "true" {
			if err := s.CacheCluster.Unlock(cache, key, q.Get("lock")); err != nil {
				writeError(w, err)
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		existed, err := s.CacheCluster.Remove(cache, key)
		if err != nil {
			writeError(w, err)
			return
		}
		if !existed {
			writeError(w, storecommon.Errf(storecommon.CodeResourceNotFound, 404, "key %q not cached", key))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeMethodNotAllowed(w, r)
	}
}
