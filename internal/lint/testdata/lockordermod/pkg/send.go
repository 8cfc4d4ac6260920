package pkg

import "sync"

// Guarded couples a mutex with the state it protects.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// SendUnderLock performs a blocking send between Lock and Unlock; the
// send after the Unlock is clean.
func SendUnderLock(g *Guarded, ch chan int) {
	g.mu.Lock()
	ch <- g.n
	g.mu.Unlock()
	ch <- 0
}

// SendUnderDeferredLock holds the lock to function exit via defer, so the
// send still happens under it.
func SendUnderDeferredLock(g *Guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch <- g.n
}

// SelectSendUnderLock blocks in a select with no default while locked.
func SelectSendUnderLock(g *Guarded, ch chan int, stop chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case ch <- g.n:
	case <-stop:
	}
}

// SendUnderLocalLock sends under a mutex that is a local variable.
func SendUnderLocalLock(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1
	mu.Unlock()
}

// SendInClosure sends under a lock the closure body takes itself: the
// closure runs later, under its own lock state.
func SendInClosure(g *Guarded, ch chan int) func() {
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		ch <- g.n
	}
}

// sendValue, recvFrom and recvOn block on the group before they return a
// select clause's operand.
func sendValue(wg *sync.WaitGroup) int {
	wg.Wait()
	return 0
}

func recvFrom(wg *sync.WaitGroup, ch chan int) chan int {
	wg.Wait()
	return ch
}

func recvOn(wg *sync.WaitGroup, ch chan int) chan int {
	wg.Wait()
	return ch
}

// SelectOperandsUnderLock blocks while locked in the calls that compute its
// clauses' operands: they run when the select is entered, whichever clause
// it then picks. The default clause keeps the send itself unreported.
func SelectOperandsUnderLock(g *Guarded, ch chan int, wg *sync.WaitGroup) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case ch <- sendValue(wg):
	case v := <-recvFrom(wg, ch):
		return v
	case <-recvOn(wg, ch):
	default:
	}
	return 0
}
