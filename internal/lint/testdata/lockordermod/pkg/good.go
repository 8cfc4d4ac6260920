package pkg

// SendAfterUnlock snapshots under the lock and sends outside it.
func SendAfterUnlock(g *Guarded, ch chan int) {
	g.mu.Lock()
	v := g.n
	g.mu.Unlock()
	ch <- v
}

// NonBlockingSend may send while locked, but the default clause keeps the
// select from blocking.
func NonBlockingSend(g *Guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case ch <- g.n:
	default:
	}
}

// SendInSpawnedGoroutine spawns the send under the lock; the goroutine
// runs under its own lock state, so the spawner does not block.
func SendInSpawnedGoroutine(g *Guarded, ch chan int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := g.n
	go func() {
		ch <- v
	}()
}
