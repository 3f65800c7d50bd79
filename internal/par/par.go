// Package par is the process's one fan-out for simulation work. Every
// goroutine that builds a stream, runs an experiment's workload or
// replays a lane is started by For, and all of them draw on one
// process-wide budget of GOMAXPROCS-1 helper tokens.
//
// The caller of For always works on its own items. It adds a helper
// goroutine only when it takes a token, and taking one never blocks:
// when none is free the work stays on the caller. Nested calls therefore
// cannot deadlock, and one top-level caller never has more than
// GOMAXPROCS items running at once, however deep its calls nest. A token
// a finished loop returns is taken by whichever loop claims an item
// next, so the lanes of the last workloads of a sweep pick up the CPUs
// its other workloads leave idle.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers is the number of tokens taken: helper goroutines running.
var helpers atomic.Int64

// take takes a helper token if one is free.
func take() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		n := helpers.Load()
		if n >= limit {
			return false
		}
		if helpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// For runs f(0..n-1) on the caller and on as many helpers as free tokens
// allow, and returns when every started item has finished. ctx is checked
// before each item; the first error, ctx's included, stops further claims
// and is returned. Items may finish in any order, so f writes its result
// by index.
func For(ctx context.Context, n int, f func(i int) error) error {
	l := &loop{ctx: ctx, n: int64(n), f: f}
	l.run()
	l.wg.Wait()
	return l.err
}

// loop is the shared state of one For call.
type loop struct {
	ctx  context.Context
	n    int64
	f    func(i int) error
	next atomic.Int64 // the next unclaimed item
	stop atomic.Bool
	once sync.Once
	err  error
	wg   sync.WaitGroup
}

// run claims items until none is left or one has failed. Before it runs
// an item it starts a helper if another item is still unclaimed and a
// token is free.
func (l *loop) run() {
	for !l.stop.Load() {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		err := l.ctx.Err()
		if err == nil {
			if l.next.Load() < l.n && take() {
				l.wg.Add(1)
				go l.help()
			}
			err = l.f(int(i))
		}
		if err != nil {
			l.once.Do(func() { l.err = err; l.stop.Store(true) })
			return
		}
	}
}

// help is a helper goroutine: it runs the loop and then returns its token.
func (l *loop) help() {
	defer l.wg.Done()
	defer helpers.Add(-1)
	l.run()
}
