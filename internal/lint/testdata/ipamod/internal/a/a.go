// Package a exercises summary construction: call chains to blocking
// operations, goroutine-excluded calls, lock acquisition propagation,
// promoted locks, transitive channel closes, and WaitGroup waits.
package a

import (
	"sync"

	"ipamod/internal/shared"
)

// Top reaches a channel send two calls deep.
func Top(ch chan int) { mid(ch) }

func mid(ch chan int) { leafSend(ch) }

func leafSend(ch chan int) { ch <- 1 }

// Spawner runs leafSend on its own goroutine: Spawner itself must not be
// summarized as blocking.
func Spawner(ch chan int) { go leafSend(ch) }

// LockRes acquires the struct-field lock directly.
func LockRes(r *shared.Res) {
	r.Mu.Lock()
	r.N++
	r.Mu.Unlock()
}

// Caller acquires shared.Res.Mu only transitively.
func Caller(r *shared.Res) { LockRes(r) }

// LockEmbedded acquires a promoted (embedded) mutex.
func LockEmbedded(e *shared.Embedded) {
	e.Lock()
	e.V++
	e.Unlock()
}

// WaitAll blocks on a WaitGroup.
func WaitAll(wg *sync.WaitGroup) { wg.Wait() }

// Detached builds a blocking closure without invoking it: the literal's
// body must not leak into Detached's own summary.
func Detached(ch chan int) func() {
	return func() { ch <- 9 }
}
