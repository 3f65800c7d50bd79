package mem

// Drain empties every free list of the pool, so the next Grab of any
// type is a miss: what follows runs as on a fresh process's pool.
func Drain() {
	lists.Range(func(_, l any) bool {
		l.(interface{ drain() }).drain()
		return true
	})
}

func (l *freeList[T]) drain() {
	l.mu.Lock()
	l.free = nil
	l.mu.Unlock()
}
