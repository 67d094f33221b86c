package gateway

// Request coalescing: under a hot-key workload (the 80/20 skew of the
// paper's §6), N concurrent cache misses on one name would issue N
// identical overlay lookups right when the fabric is busiest — exactly the
// duplicate load REPLICATEFILE needs time to absorb. A flightGroup lets
// the first miss fetch while every concurrent duplicate waits for that one
// result: N requests, one lookup.
//
// Most misses have no duplicate, so a flight costs nothing until one
// joins: the first follower makes the channel followers wait on, and a
// flight nobody joined goes back on the group's free list for the next
// miss. A flight that had followers is left to them and the collector —
// they read its result after the leader has moved on.

import "sync"

// flight is one in-progress fetch. done is nil until a follower joins;
// res and err are written before done is closed.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// flightGroup deduplicates concurrent fetches by name.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	free    []*flight // finished flights no follower joined
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: map[string]*flight{}}
}

// do runs fetch for name, coalescing concurrent callers onto one
// execution. shared reports whether this caller rode an existing flight.
func (g *flightGroup) do(name string, fetch func() (Result, error)) (res Result, shared bool, err error) {
	g.mu.Lock()
	if f, inFlight := g.flights[name]; inFlight {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		g.mu.Unlock()
		<-f.done
		return f.res, true, f.err
	}
	var f *flight
	if n := len(g.free); n > 0 {
		f, g.free = g.free[n-1], g.free[:n-1]
	} else {
		f = new(flight)
	}
	g.flights[name] = f
	g.mu.Unlock()

	res, err = fetch()
	f.res, f.err = res, err
	g.mu.Lock()
	delete(g.flights, name)
	done := f.done
	if done == nil {
		// Unjoined, and now out of the map: nobody else can reach it.
		*f = flight{}
		g.free = append(g.free, f)
	}
	g.mu.Unlock()
	if done != nil {
		close(done)
	}
	return res, false, err
}
