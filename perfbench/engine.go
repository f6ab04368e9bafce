package main

import (
	"fmt"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/vclock"
	"azurebench/internal/workload"
)

// engineMetrics are the engine-direct rung's per-call costs, in report
// order. A workload reports 0 for calls it does not make.
var engineMetrics = []string{
	"queuestore.put_ns", "queuestore.peek_ns", "queuestore.get_ns", "queuestore.delete_ns",
	"tablestore.insert_ns", "tablestore.get_ns", "tablestore.replace_ns", "tablestore.delete_ns",
	"blobstore.upload_ns", "blobstore.download_ns",
}

// engineResult accumulates timed engine calls and output checks.
type engineResult struct {
	total             map[string]time.Duration
	calls             map[string]int64
	attempted, failed int64
}

func newEngineResult() engineResult {
	return engineResult{total: map[string]time.Duration{}, calls: map[string]int64{}}
}

// time runs one engine call and charges its duration to metric.
func (er *engineResult) time(metric string, call func()) {
	t0 := time.Now()
	call()
	er.total[metric] += time.Since(t0)
	er.calls[metric]++
	er.attempted++
}

// check counts a failed call or a failed output check as a failed op.
func (er *engineResult) check(metric string, err error) {
	if err != nil {
		er.failed++
		fmt.Printf("# engine %s: %v\n", metric, err)
	}
}

func setEngine(res *result, er engineResult) {
	for _, m := range engineMetrics {
		v := 0.0
		if n := er.calls[m]; n > 0 {
			v = float64(er.total[m].Nanoseconds()) / float64(n)
		}
		res.set(m, "ns", v)
	}
}

var errMismatch = fmt.Errorf("returned bytes differ from the bytes written")

// queueDeepEngine replays Algorithm 3 against fresh queue stores at the
// depths sim-queue-deep reaches: one 8,000-deep queue, then eight
// 1,000-deep ones. Each queue is filled, peeked and drained in turn.
func queueDeepEngine(seed int64) engineResult {
	er := newEngineResult()
	for _, w := range []int{1, 8} {
		s := queuestore.New(vclock.Real{})
		for k := 0; k < w; k++ {
			name := fmt.Sprintf("azurebench-queue-%d", k)
			if err := s.CreateQueue(name); err != nil {
				er.check("queuestore.create", err)
				continue
			}
			body := payload.Synthetic(uint64(seed)+uint64(k), 4*storecommon.KB)
			count := 8000 / w
			var (
				m   queuestore.Message
				ok  bool
				err error
			)
			for i := 0; i < count; i++ {
				er.time("queuestore.put_ns", func() { _, err = s.Put(name, body, 0) })
				er.check("queuestore.put_ns", err)
			}
			for i := 0; i < count; i++ {
				er.time("queuestore.peek_ns", func() { m, ok, err = s.PeekOne(name) })
				er.check("queuestore.peek_ns", checkMessage(m, ok, err, body))
			}
			for i := 0; i < count; i++ {
				er.time("queuestore.get_ns", func() { m, ok, err = s.GetOne(name, time.Hour) })
				er.check("queuestore.get_ns", checkMessage(m, ok, err, body))
				er.time("queuestore.delete_ns", func() { err = s.Delete(name, m.ID, m.PopReceipt) })
				er.check("queuestore.delete_ns", err)
			}
		}
	}
	return er
}

func checkMessage(m queuestore.Message, ok bool, err error, want payload.Payload) error {
	switch {
	case err != nil:
		return err
	case !ok:
		return fmt.Errorf("queue empty")
	case !sameContent(m.Body, want):
		return errMismatch
	}
	return nil
}

// tableCRUDEngine replays Algorithm 5 against a fresh table store per
// point of sim-table-crud: per worker partition, 500 inserts, gets,
// unconditional replaces and deletes, at 4, 16 and 64 KB.
func tableCRUDEngine(seed int64) engineResult {
	er := newEngineResult()
	const table = "AzureBenchTable"
	for _, kb := range []int{4, 16, 64} {
		for _, w := range []int{1, 8, 32} {
			s := tablestore.New(vclock.Real{})
			if err := s.CreateTable(table); err != nil {
				er.check("tablestore.create", err)
				continue
			}
			for k := 0; k < w; k++ {
				pk := fmt.Sprintf("worker-%03d", k)
				entity := func(i int, gen uint64) *tablestore.Entity {
					return &tablestore.Entity{
						PartitionKey: pk,
						RowKey:       fmt.Sprintf("row-%05d", i),
						Props: map[string]tablestore.Value{
							"Data": tablestore.Binary(payload.Synthetic(uint64(seed)+gen+uint64(i), int64(kb)*storecommon.KB)),
						},
					}
				}
				var (
					got *tablestore.Entity
					err error
				)
				for i := 0; i < 500; i++ {
					e := entity(i, 0)
					er.time("tablestore.insert_ns", func() { _, err = s.Insert(table, e) })
					er.check("tablestore.insert_ns", err)
				}
				for i := 0; i < 500; i++ {
					want := entity(i, 0)
					er.time("tablestore.get_ns", func() { got, err = s.Get(table, pk, want.RowKey) })
					er.check("tablestore.get_ns", checkEntity(got, err, want))
				}
				for i := 0; i < 500; i++ {
					e := entity(i, 1_000_000)
					er.time("tablestore.replace_ns", func() { _, err = s.Replace(table, e, storecommon.ETagAny) })
					er.check("tablestore.replace_ns", err)
				}
				for i := 0; i < 500; i++ {
					rk := fmt.Sprintf("row-%05d", i)
					er.time("tablestore.delete_ns", func() { err = s.Delete(table, pk, rk, storecommon.ETagAny) })
					er.check("tablestore.delete_ns", err)
				}
			}
		}
	}
	return er
}

// checkEntity reports whether got carries every property of want.
func checkEntity(got *tablestore.Entity, err error, want *tablestore.Entity) error {
	if err != nil {
		return err
	}
	for k, v := range want.Props {
		g := got.Props[k]
		if g.Type != v.Type || (v.Type == tablestore.TypeBinary && !sameContent(g.Bin, v.Bin)) ||
			(v.Type != tablestore.TypeBinary && !g.Equal(v)) {
			return errMismatch
		}
	}
	return nil
}

// sameContent compares payloads up to 1 KB byte by byte, and longer ones
// by length and 64 evenly spaced bytes: payload.Equal reads synthetic
// content one byte at a time, which would dominate a replay of 64 KB
// entities, while a wrong entity's synthetic bytes differ from the
// expected ones at almost every position.
func sameContent(a, b payload.Payload) bool {
	if a.Len() != b.Len() {
		return false
	}
	if a.Len() <= 1024 {
		return payload.Equal(a, b)
	}
	const probes = 64
	for i := int64(0); i < probes; i++ {
		at := i * (a.Len() - 1) / (probes - 1)
		if a.At(at) != b.At(at) {
			return false
		}
	}
	return true
}

// liveEngine replays live-mixed's engine calls against fresh stores: a
// 2,000-entity table of 1 KB entities, a shallow queue and 1 KB blobs,
// with the same op mix and key distribution as the live clients.
func liveEngine(seed int64) engineResult {
	er := newEngineResult()
	clock := vclock.Real{}
	tables, queues, blobs := tablestore.New(clock), queuestore.New(clock), blobstore.New(clock)
	queue := liveQueue(0)
	for _, err := range []error{tables.CreateTable(liveTable), queues.CreateQueue(queue), blobs.CreateContainer(liveContainer)} {
		er.check("create", err)
	}
	var (
		got *tablestore.Entity
		m   queuestore.Message
		ok  bool
		err error
	)
	version := make([]int64, liveKeys)
	for k := 0; k < liveKeys; k++ {
		e := liveEntity(seed, k, 0)
		er.time("tablestore.insert_ns", func() { _, err = tables.Insert(liveTable, e) })
		er.check("tablestore.insert_ns", err)
	}
	rng := sim.NewRand(seed)
	zipf := workload.NewZipf(rng, 0.99)
	for i := 0; i < 100_000; i++ {
		switch pickLiveOp(rng) {
		case mixTableGet:
			k := zipf.Next(liveKeys)
			pk, rk := liveKey(k)
			er.time("tablestore.get_ns", func() { got, err = tables.Get(liveTable, pk, rk) })
			er.check("tablestore.get_ns", checkEntity(got, err, liveEntity(seed, k, version[k])))
		case mixTableReplace:
			k := zipf.Next(liveKeys)
			version[k]++
			e := liveEntity(seed, k, version[k])
			er.time("tablestore.replace_ns", func() { _, err = tables.Replace(liveTable, e, storecommon.ETagAny) })
			er.check("tablestore.replace_ns", err)
		case mixQueue:
			body := payload.Bytes(liveBytes(seed, -1, int64(i)))
			er.time("queuestore.put_ns", func() { _, err = queues.Put(queue, body, 0) })
			er.check("queuestore.put_ns", err)
			er.time("queuestore.get_ns", func() { m, ok, err = queues.GetOne(queue, 30*time.Second) })
			er.check("queuestore.get_ns", checkMessage(m, ok, err, body))
			er.time("queuestore.delete_ns", func() { err = queues.Delete(queue, m.ID, m.PopReceipt) })
			er.check("queuestore.delete_ns", err)
		case mixBlob:
			name := liveBlob(0, i)
			body := payload.Bytes(liveBytes(seed, -2, int64(i)))
			var down payload.Payload
			er.time("blobstore.upload_ns", func() { _, err = blobs.UploadBlockBlob(liveContainer, name, body, "") })
			er.check("blobstore.upload_ns", err)
			er.time("blobstore.download_ns", func() { down, _, err = blobs.Download(liveContainer, name) })
			if err == nil && !sameContent(down, body) {
				err = errMismatch
			}
			er.check("blobstore.download_ns", err)
		}
	}
	return er
}
