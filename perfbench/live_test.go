package main

import "testing"

// TestLiveMixedShort drives the live workload briefly and checks that
// every call and output check passes and every call kind is exercised.
func TestLiveMixedShort(t *testing.T) {
	env, err := startLive(3, true)
	if err != nil {
		t.Fatal(err)
	}
	ph := measure(env, 0.5)
	env.close()
	if ph.calls == 0 || ph.failed != 0 {
		t.Fatalf("%d calls, %d failed; want some calls and no failures", ph.calls, ph.failed)
	}
	for op, name := range liveOpNames {
		if ph.lat[op].n == 0 || env.rec.lat[op].n == 0 {
			t.Errorf("%s: %d SDK calls, %d server spans; want both", name, ph.lat[op].n, env.rec.lat[op].n)
		}
	}
}

// TestEngineReplays checks the engine-direct replays run without a
// failed call or check.
func TestEngineReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("replays take seconds")
	}
	for name, replay := range map[string]func(int64) engineResult{
		"queue": queueDeepEngine, "table": tableCRUDEngine, "live": liveEngine,
	} {
		er := replay(5)
		if er.attempted == 0 || er.failed != 0 {
			t.Errorf("%s replay: %d attempted, %d failed", name, er.attempted, er.failed)
		}
	}
}
