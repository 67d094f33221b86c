// Package lesslog is a Go implementation of LessLog, the logless file
// replication algorithm for peer-to-peer distributed systems of Huang,
// Huang and Chou (IPDPS 2004).
//
// A LessLog system assigns every node a physical identifier (PID) in
// [0, 2^m) and builds, from a single virtual binomial tree, one lookup
// tree per node using only XOR arithmetic. Lookups take O(m) = O(log N)
// hops. When a node is overloaded by requests for a popular file, it
// replicates the file to the head of its *children list* — the child with
// the most offspring — which provably halves its load under an even
// request distribution, all without keeping any client-access logs.
// Reserving b of the m identifier bits splits every lookup tree into 2^b
// independent subtrees and stores every file 2^b times for fault
// tolerance, and a self-organized mechanism migrates files when nodes
// join, leave or fail.
//
// # Quick start
//
//	sys, err := lesslog.New(lesslog.Options{M: 10, InitialNodes: 1024})
//	if err != nil { ... }
//	sys.Insert(0, "videos/cat.mpg", data)
//	res, err := sys.Get(517, "videos/cat.mpg")   // routed in ≤ 10 hops
//	sys.ReplicateFile(res.ServedBy, "videos/cat.mpg") // shed half the load
//
// The package is a facade over the engine in internal/core; the analytic
// simulator that reproduces the paper's evaluation figures is exercised
// through the benchmarks in this directory and cmd/lesslog-bench.
package lesslog

import (
	"lesslog/internal/bitops"
	"lesslog/internal/core"
	"lesslog/internal/hashring"
	"lesslog/internal/liveness"
	"lesslog/internal/store"
)

// PID is a node's physical identifier, in [0, 2^m).
type PID = bitops.PID

// File is a stored file snapshot.
type File = store.File

// Hasher maps file names to target PIDs; see Options.Hasher.
type Hasher = hashring.Hasher

// GetResult reports how a Get was served: the file, the serving node, the
// hop count, and whether the §3 FINDLIVENODE fallback or a §4 subtree
// migration was needed.
type GetResult = core.GetResult

// InsertResult reports where an Insert placed its authoritative copies.
type InsertResult = core.InsertResult

// UpdateResult reports an Update's propagation.
type UpdateResult = core.UpdateResult

// DeleteResult reports a Delete's propagation.
type DeleteResult = core.DeleteResult

// Placement records one replica created by Maintain.
type Placement = core.Placement

// Stats are the system's cumulative traffic counters.
type Stats = core.Stats

// Errors returned by System operations.
var (
	ErrNotFound   = core.ErrNotFound
	ErrDeadOrigin = core.ErrDeadOrigin
	ErrNoLiveNode = core.ErrNoLiveNode
	ErrPIDInUse   = core.ErrPIDInUse
	ErrPIDRange   = core.ErrPIDRange
	ErrNotLive    = core.ErrNotLive
)

// Options configures a System.
type Options struct {
	// M is the identifier width in bits: the system addresses 2^M nodes
	// and lookups take at most M hops. Required, 1..30.
	M int
	// B reserves the last B identifier bits for fault tolerance: every
	// file is stored in each of the 2^B lookup subtrees (paper §4).
	// 0 disables fault tolerance (the paper's evaluation setting).
	B int
	// InitialNodes bootstraps PIDs 0..InitialNodes-1 as live nodes.
	InitialNodes int
	// Hasher is ψ, mapping file names to target PIDs. Nil selects the
	// FNV-1a default.
	Hasher Hasher
	// Seed fixes the stream behind the advanced model's proportional
	// children-list choice, making runs reproducible.
	Seed uint64
}

// System is an in-process LessLog system: N simulated peers, their stores
// and status words, and the full §2–§5 protocol between them.
type System struct {
	c *core.Cluster
}

// New creates a system with opts.InitialNodes live nodes.
func New(opts Options) (*System, error) {
	c, err := core.New(core.Config{
		M: opts.M, B: opts.B,
		InitialNodes: opts.InitialNodes,
		Hasher:       opts.Hasher,
		Seed:         opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &System{c: c}, nil
}

// M returns the identifier width.
func (s *System) M() int { return s.c.M() }

// B returns the fault-tolerance bits.
func (s *System) B() int { return s.c.B() }

// NodeCount returns the number of live nodes.
func (s *System) NodeCount() int { return s.c.NodeCount() }

// Target returns ψ(name): the node a file is anchored at.
func (s *System) Target(name string) PID { return s.c.Target(name) }

// Insert stores a file, placing one authoritative copy per subtree
// (ADVANCEDINSERTFILE, §3/§4). Any live node may originate the request.
func (s *System) Insert(origin PID, name string, data []byte) (InsertResult, error) {
	return s.c.Insert(origin, name, data)
}

// Get resolves a file from origin's point of view, walking the target's
// lookup tree along live ancestors and stopping at the first copy
// (GETFILE, §2.2/§3/§4).
func (s *System) Get(origin PID, name string) (GetResult, error) {
	return s.c.Get(origin, name)
}

// Update rewrites a file and propagates the change to every replica
// top-down through the children lists (§2.2).
func (s *System) Update(origin PID, name string, data []byte) (UpdateResult, error) {
	return s.c.Update(origin, name, data)
}

// Delete erases a file from the system — the authoritative copies and
// every replica — via the same top-down broadcast Update uses.
func (s *System) Delete(origin PID, name string) (DeleteResult, error) {
	return s.c.Delete(origin, name)
}

// ReplicateFile sheds load from holder: one replica of name is placed on
// the first node of holder's children list without a copy (REPLICATEFILE,
// §2.2/§3). It returns where the replica landed.
func (s *System) ReplicateFile(holder PID, name string) (PID, error) {
	return s.c.ReplicateFile(holder, name)
}

// Maintain closes the current observation window on every node (§2.2,
// §6): replicas that served fewer than evictBelow gets are removed (the
// paper's counter-based removal mechanism), every node whose hottest
// remaining copy served more than threshold gets replicates it once, and
// all serve counts restart from zero — so read ServeCount before calling
// it. It returns the placements made and the number of replicas evicted.
func (s *System) Maintain(threshold, evictBelow uint64) ([]Placement, int) {
	return s.c.Maintain(threshold, evictBelow)
}

// Join admits a new node at PID k and migrates to it the files it must
// now host (§5.1).
func (s *System) Join(k PID) error { return s.c.Join(k) }

// Leave retires node k gracefully, re-inserting its authoritative copies
// elsewhere and discarding its replicas (§5.2).
func (s *System) Leave(k PID) error { return s.c.Leave(k) }

// Fail kills node k abruptly. With B > 0 the surviving subtrees restore
// the lost copies (§5.3); with B == 0 its files are lost.
func (s *System) Fail(k PID) error { return s.c.Fail(k) }

// HoldersOf returns the nodes currently holding a copy of name.
func (s *System) HoldersOf(name string) []PID { return s.c.HoldersOf(name) }

// ServeCount returns how many gets node p served for name in the current
// window — the counter behind overload detection.
func (s *System) ServeCount(p PID, name string) uint64 {
	n, ok := s.c.Node(p)
	if !ok {
		return 0
	}
	return n.Store().Hits(name)
}

// FaultToleranceDegree returns how many subtrees hold an authoritative
// copy of name (at most 2^B).
func (s *System) FaultToleranceDegree(name string) int {
	return s.c.FaultToleranceDegreeOf(name)
}

// RepairResult reports an anti-entropy sweep.
type RepairResult = core.RepairResult

// Repair synchronizes every copy of name to the newest version and drops
// replicas whose authoritative copy is gone — the anti-entropy sweep that
// closes the stale-orphan gap churn can open (see internal/core).
func (s *System) Repair(name string) RepairResult { return s.c.Repair(name) }

// RepairAll sweeps every file in the system.
func (s *System) RepairAll() RepairResult { return s.c.RepairAll() }

// Live returns a snapshot of the status word.
func (s *System) Live() *liveness.Set { return s.c.Live() }

// Stats returns cumulative traffic counters.
func (s *System) Stats() Stats { return s.c.Stats() }

// CheckInvariants validates the system's structural invariants; see
// internal/core for the list. Intended for tests and debugging.
func (s *System) CheckInvariants() error { return s.c.CheckInvariants() }
