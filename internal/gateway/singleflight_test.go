package gateway

import (
	"errors"
	"sync"
	"testing"
)

// TestFlightWithoutFollowersAllocatesNothing: a miss nobody else joins
// makes no channel, and its finished flight takes the next miss.
func TestFlightWithoutFollowersAllocatesNothing(t *testing.T) {
	g := newFlightGroup()
	fetch := func() (Result, error) { return Result{Version: 7}, nil }
	if got := testing.AllocsPerRun(1000, func() {
		if res, shared, err := g.do("name", fetch); err != nil || shared || res.Version != 7 {
			t.Fatalf("do = %+v, %v, %v", res, shared, err)
		}
	}); got != 0 {
		t.Errorf("follower-free flight: %v allocs, want 0", got)
	}
}

// TestFlightFollowersJoinWhileLeaderFinishes races followers against the
// leader's return, round after round on one name: a follower that joins
// before the leader leaves the map gets the leader's result, one that comes
// after leads a flight of its own (which later followers may ride), nobody
// is left waiting, and no follower reads a result of an earlier round — a
// flight a follower joined is never recycled under it.
func TestFlightFollowersJoinWhileLeaderFinishes(t *testing.T) {
	g := newFlightGroup()
	errOdd := errors.New("odd round")
	for round := uint64(1); round <= 300; round++ {
		started := make(chan struct{})
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := g.do("hot", func() (Result, error) {
				close(started)
				<-release
				if round%2 == 1 {
					return Result{Version: round}, errOdd
				}
				return Result{Version: round}, nil
			})
			if shared || res.Version != round {
				t.Errorf("round %d: leader got %+v shared=%v", round, res, shared)
			}
			if (round%2 == 1) != (err != nil) {
				t.Errorf("round %d: leader err %v", round, err)
			}
		}()
		<-started
		for f := 0; f < 4; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				own := Result{Version: 1 << 40}
				res, shared, err := g.do("hot", func() (Result, error) { return own, nil })
				fromLeader := res.Version == round && (round%2 == 1) == errors.Is(err, errOdd)
				fromFollower := res.Version == own.Version && err == nil
				switch {
				case shared && !fromLeader && !fromFollower:
					t.Errorf("round %d: follower got %+v, %v from a flight of another round", round, res, err)
				case !shared && !fromFollower:
					t.Errorf("round %d: follower leading its own flight got %+v, %v", round, res, err)
				}
			}()
			if f == 1 {
				close(release) // the rest race the leader's return
			}
		}
		wg.Wait()
		if len(g.flights) != 0 {
			t.Fatalf("round %d: %d flights left in the map", round, len(g.flights))
		}
	}
}
