package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS for the rest of the test and restores the
// previous value when it ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestForNestedCompletes: three nested levels at GOMAXPROCS=1, where no
// token is ever free, run every item on the caller and finish.
func TestForNestedCompletes(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		var leaves atomic.Int64
		err := For(context.Background(), 3, func(int) error {
			return For(context.Background(), 4, func(int) error {
				return For(context.Background(), 5, func(int) error {
					leaves.Add(1)
					return nil
				})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := leaves.Load(); got != 3*4*5 {
			t.Errorf("GOMAXPROCS=%d: %d leaves ran, want %d", procs, got, 3*4*5)
		}
	}
}

// TestForBoundedByGOMAXPROCS counts the items running at once under one
// top-level caller, nested calls included: never more than GOMAXPROCS.
func TestForBoundedByGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		var running, peak atomic.Int64
		leaf := func(int) error {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
			return nil
		}
		err := For(context.Background(), 8, func(i int) error {
			if i%2 == 0 {
				return leaf(i)
			}
			return For(context.Background(), 8, leaf)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got > int64(procs) {
			t.Errorf("GOMAXPROCS=%d: %d items ran at once", procs, got)
		}
		if got := helpers.Load(); got != 0 {
			t.Errorf("GOMAXPROCS=%d: %d tokens still taken after For returned", procs, got)
		}
	}
}

// TestForUsesFreeTokens: with every token free, a caller's GOMAXPROCS
// items all run at once (each waits for the others to start).
func TestForUsesFreeTokens(t *testing.T) {
	const procs = 4
	setProcs(t, procs)
	var started atomic.Int64
	all := make(chan struct{})
	err := For(context.Background(), procs, func(int) error {
		if started.Add(1) == procs {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("the other items never started")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForStopsAtFirstError: the failing item's error is returned, and on
// the caller alone no item after it is claimed.
func TestForStopsAtFirstError(t *testing.T) {
	setProcs(t, 1)
	boom := errors.New("boom")
	var ran [10]bool
	err := For(context.Background(), len(ran), func(i int) error {
		ran[i] = true
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for i, r := range ran {
		if r != (i <= 3) {
			t.Errorf("item %d ran = %v", i, r)
		}
	}

	setProcs(t, 4)
	var after atomic.Int64
	err = For(context.Background(), 1000, func(i int) error {
		if i == 0 {
			return boom
		}
		after.Add(1)
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if err != boom {
		t.Fatalf("GOMAXPROCS=4: err = %v, want %v", err, boom)
	}
	if n := after.Load(); n >= 999 {
		t.Errorf("GOMAXPROCS=4: %d items ran after the first failed", n)
	}
}

// TestForCancelled: a cancelled context runs no item and returns its
// error.
func TestForCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := For(ctx, 10, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want %v", err, context.Canceled)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d items ran under a cancelled context", n)
	}
	if err := For(ctx, 0, func(int) error { return nil }); err != nil {
		t.Errorf("no items: err = %v", err)
	}
}

// TestForResultsByIndex: every item's result lands in its own slot.
func TestForResultsByIndex(t *testing.T) {
	setProcs(t, 4)
	out := make([]int, 500)
	err := For(context.Background(), len(out), func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}
