package sim

import (
	"encoding/binary"
	"hash/crc64"
	"sort"
	"testing"
	"time"
)

// TestEventHeapMatchesSort pushes and pops thousands of events with many
// duplicate times and checks every pop against a sorted reference.
func TestEventHeapMatchesSort(t *testing.T) {
	rng := NewRand(7)
	var h eventHeap
	var ref []event
	var seq uint64
	for round := 0; round < 60; round++ {
		for k := rng.Intn(200); k > 0; k-- {
			seq++
			ev := event{at: time.Duration(rng.Intn(50)), seq: seq}
			h.push(ev)
			ref = append(ref, ev)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
		pops := rng.Intn(len(ref) + 1)
		if round == 59 {
			pops = len(ref)
		}
		for i := 0; i < pops; i++ {
			got := h.pop()
			if got.at != ref[i].at || got.seq != ref[i].seq {
				t.Fatalf("round %d pop %d = (%v, %d), want (%v, %d)", round, i, got.at, got.seq, ref[i].at, ref[i].seq)
			}
		}
		ref = ref[pops:]
		if len(h) != len(ref) {
			t.Fatalf("round %d: heap holds %d events, want %d", round, len(h), len(ref))
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d events left", len(h))
	}
}

// TestEventFingerprintGolden pins the snapshot fingerprint of the pending
// events, taken right after every Sleep, Resource grant, Signal, WaitGroup
// and Store wake is queued, and between RunUntil steps. The value must not
// change unless event timing or sequencing does, which would also break
// replay verification of existing checkpoints.
func TestEventFingerprintGolden(t *testing.T) {
	e := NewEnv(1)
	srv := NewResource(e, "srv", 2)
	start := NewSignal(e)
	items := NewStore[int](e, "items")
	wg := NewWaitGroup(e)
	var buf [8]byte
	crc := crc64.Update(0, eventCRCTable, nil)
	records := 0
	record := func() {
		for _, v := range []uint64{uint64(len(e.events)), e.eventFingerprint()} {
			binary.BigEndian.PutUint64(buf[:], v)
			crc = crc64.Update(crc, eventCRCTable, buf[:])
		}
		records++
	}
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		e.GoAt(time.Duration(i)*time.Millisecond, "", func(p *Proc) {
			start.Wait(p)
			srv.Acquire(p)
			p.Sleep(time.Duration(2+i%3) * time.Millisecond)
			srv.Release()
			record()
			items.Put(i)
			record()
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
			record()
		})
	}
	e.Go("starter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		record()
		start.Fire()
		record()
	})
	for c := 0; c < 2; c++ {
		e.Go("", func(p *Proc) {
			for i := 0; i < 3; i++ {
				items.Get(p)
				p.Sleep(time.Millisecond)
			}
		})
	}
	e.Go("joiner", func(p *Proc) { wg.Wait(p) })
	for _, at := range []time.Duration{0, 3 * time.Millisecond, 6 * time.Millisecond, 9 * time.Millisecond} {
		e.RunUntil(at)
		record()
	}
	e.Run()

	if records != 24 || crc != 0x53254ec219f048e6 {
		t.Fatalf("fingerprints: %d records, crc %#x; want 24, 0x53254ec219f048e6", records, crc)
	}
}
