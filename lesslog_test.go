package lesslog

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
)

func newSystem(t *testing.T, opts Options) *System {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeLifecycle(t *testing.T) {
	s := newSystem(t, Options{M: 10, InitialNodes: 1024, Seed: 1})
	if s.M() != 10 || s.B() != 0 || s.NodeCount() != 1024 {
		t.Fatalf("m=%d b=%d n=%d", s.M(), s.B(), s.NodeCount())
	}
	name := "videos/cat.mpg"
	ins, err := s.Insert(0, name, []byte("meow"))
	if err != nil {
		t.Fatal(err)
	}
	if ins.Target != s.Target(name) {
		t.Fatal("insert target mismatch")
	}
	res, err := s.Get(517, name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.File.Data, []byte("meow")) || res.Hops > 10 {
		t.Fatalf("get = %+v", res)
	}
	if _, err := s.Update(3, name, []byte("purr")); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Get(900, name)
	if !bytes.Equal(res.File.Data, []byte("purr")) {
		t.Fatal("update not visible")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeReplicationFlow(t *testing.T) {
	s := newSystem(t, Options{M: 8, InitialNodes: 256, Seed: 2})
	name := "hot-object"
	if _, err := s.Insert(0, name, []byte("x")); err != nil {
		t.Fatal(err)
	}
	target := s.Target(name)
	// Hammer the file, then let the overload check replicate.
	for p := PID(0); p < 256; p++ {
		if _, err := s.Get(p, name); err != nil {
			t.Fatal(err)
		}
	}
	placements, _ := s.Maintain(100, 0)
	if len(placements) != 1 || placements[0].Holder != target {
		t.Fatalf("placements = %+v", placements)
	}
	if got := s.HoldersOf(name); len(got) != 2 {
		t.Fatalf("holders = %v", got)
	}
	// §2.2 halving: a fresh window of one get per node splits evenly.
	for p := PID(0); p < 256; p++ {
		s.Get(p, name)
	}
	a := s.ServeCount(target, name)
	b := s.ServeCount(placements[0].Replica, name)
	if a != 128 || b != 128 {
		t.Fatalf("serve split = %d/%d, want 128/128", a, b)
	}
	s.Maintain(math.MaxUint64, 0)
	// Cold window evicts the replica.
	if _, n := s.Maintain(math.MaxUint64, 1); n != 1 {
		t.Fatalf("evicted %d", n)
	}
}

func TestFacadeChurn(t *testing.T) {
	s := newSystem(t, Options{M: 6, B: 2, InitialNodes: 64, Seed: 3})
	for i := 0; i < 20; i++ {
		if _, err := s.Insert(PID(i), fmt.Sprintf("f%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.FaultToleranceDegree("f0"); d != 4 {
		t.Fatalf("degree = %d", d)
	}
	if err := s.Leave(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(11); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(10); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Get(0, fmt.Sprintf("f%d", i)); err != nil {
			t.Fatalf("f%d lost after churn: %v", i, err)
		}
	}
	if !s.Live().IsLive(10) || s.Live().IsLive(11) {
		t.Fatal("liveness snapshot wrong")
	}
}

func TestFacadeErrors(t *testing.T) {
	s := newSystem(t, Options{M: 4, InitialNodes: 8})
	if _, err := s.Get(0, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get: %v", err)
	}
	if _, err := s.Get(15, "nope"); !errors.Is(err, ErrDeadOrigin) {
		t.Fatalf("dead origin: %v", err)
	}
	if err := s.Join(3); !errors.Is(err, ErrPIDInUse) {
		t.Fatalf("join: %v", err)
	}
	if err := s.Leave(14); !errors.Is(err, ErrNotLive) {
		t.Fatalf("leave: %v", err)
	}
	if _, err := New(Options{M: 4, InitialNodes: 99}); err == nil {
		t.Fatal("invalid options accepted")
	}
	if s.ServeCount(77, "x") != 0 {
		t.Fatal("ServeCount on absent node should be 0")
	}
	st := s.Stats()
	if st.Faults != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
