// Package trace renders LessLog's lookup trees and routing paths as text
// — the tooling counterpart of the paper's Figures 1–4 — for the
// lesslog-trace command, examples and debugging sessions.
package trace

import (
	"fmt"
	"strings"
	"time"

	"lesslog/internal/bitops"
	"lesslog/internal/liveness"
	"lesslog/internal/msg"
	"lesslog/internal/ptree"
	"lesslog/internal/vtree"
)

// Virtual renders the unique m-bit virtual lookup tree (Figure 1).
func Virtual(m int) string {
	return vtree.New(m).Render(nil)
}

// Physical renders the lookup tree of P(root) with each position labeled
// by its PID, marking dead positions (Figures 2 and 3). live may be nil
// for a complete system.
func Physical(root bitops.PID, m int, live *liveness.Set) string {
	t := vtree.New(m)
	return t.Render(func(v bitops.VID) string {
		p := bitops.PIDOf(v, root, m)
		if live != nil && !live.IsLive(p) {
			return fmt.Sprintf("  P(%d) ✗dead", p)
		}
		return fmt.Sprintf("  P(%d)", p)
	})
}

// Route formats the get walk from origin for a name inserted at target:
// the loop of ptree.View.Next until a stop is a subtree primary (where the
// insert put a copy), in HopRoute's arrows — e.g. "P(8) → P(0) → P(4)", or
// "P(7) ⇒ P(6) [FINDLIVENODE]" with P(4) and P(5) dead. A dead origin is
// marked "P(x)✗".
func Route(origin, target bitops.PID, live *liveness.Set, b int) string {
	v := ptree.NewView(target, live, b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "P(%d)", origin)
	if !live.IsLive(origin) {
		sb.WriteString("✗")
	}
	for cur, st := origin, (ptree.Route{Origin: origin}); !v.IsPrimary(cur); {
		next, nst, act, ok := v.Next(cur, st)
		if !ok {
			break
		}
		fmt.Fprintf(&sb, "%sP(%d)", arrow(act), next)
		if act == msg.HopFallback {
			sb.WriteString(" [FINDLIVENODE]")
		}
		cur, st = next, nst
	}
	return sb.String()
}

// HopRoute formats the observed hop records of a traced wire-level get in
// the same arrow style as Route — "P(8) → P(0) → P(4)" — so the live route
// a request actually took reads exactly like the predicted one. The §3
// FINDLIVENODE step is drawn with "⇒", the §4 subtree migration with "↷".
// A terminal fault hop is marked "P(x)✗" — the stop where routing died on
// a traced lookup that ended in a fault.
func HopRoute(hops []msg.Hop) string {
	var b strings.Builder
	for i, h := range hops {
		if i > 0 {
			b.WriteString(arrow(hops[i-1].Action))
		}
		fmt.Fprintf(&b, "P(%d)", h.PID)
		if h.Action == msg.HopFault {
			b.WriteString("✗")
		}
	}
	return b.String()
}

// arrow draws the step a stop took with a get: "⇒" for the §3
// FINDLIVENODE jump, "↷" for the §4 migration, "→" otherwise.
func arrow(a msg.HopAction) string {
	switch a {
	case msg.HopFallback:
		return " ⇒ "
	case msg.HopMigrate:
		return " ↷ "
	}
	return " → "
}

// HopTable formats the hop records one per line with action and per-stop
// latency — the detail view `lesslogd -op get -trace` prints under the
// route.
func HopTable(hops []msg.Hop) string {
	var b strings.Builder
	for i, h := range hops {
		fmt.Fprintf(&b, "%2d  P(%-3d) %-8s %s\n",
			i, h.PID, h.Action, h.Dur.Round(time.Microsecond))
	}
	return b.String()
}

// ChildrenList formats the (expanded) children list of p in the tree of
// target, e.g. "(P(6), P(7), P(1), P(12), P(13), P(8))" (§2.2, §3).
func ChildrenList(p, target bitops.PID, live *liveness.Set, b int) string {
	v := ptree.NewView(target, live, b)
	list := v.ExpandedChildrenList(p)
	parts := make([]string, len(list))
	for i, c := range list {
		parts[i] = fmt.Sprintf("P(%d)", c)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DOT renders the lookup tree of P(root) in Graphviz DOT format, with
// dead positions drawn dashed — paste into `dot -Tsvg` to regenerate the
// paper's figures graphically. live may be nil for a complete system.
func DOT(root bitops.PID, m int, live *liveness.Set) string {
	t := vtree.New(m)
	var b strings.Builder
	fmt.Fprintf(&b, "digraph lesslog_tree_P%d {\n", root)
	b.WriteString("  node [shape=record, fontname=\"monospace\"];\n")
	for _, v := range t.Preorder() {
		p := bitops.PIDOf(v, root, m)
		attrs := ""
		if live != nil && !live.IsLive(p) {
			attrs = ", style=dashed, color=gray"
		}
		fmt.Fprintf(&b, "  v%d [label=\"{%0*b|P(%d)}\"%s];\n", v, m, v, p, attrs)
		for _, c := range t.Children(v) {
			fmt.Fprintf(&b, "  v%d -> v%d;\n", v, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Conversions formats the PID↔VID table of one lookup tree for the first
// n slots, a study aid for Property 4.
func Conversions(target bitops.PID, m, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lookup tree of P(%d): complement = %0*b\n", target, m, bitops.Complement(target, m))
	fmt.Fprintf(&sb, "%6s  %s\n", "PID", "VID")
	if n > bitops.Slots(m) {
		n = bitops.Slots(m)
	}
	for p := 0; p < n; p++ {
		fmt.Fprintf(&sb, "%6d  %0*b\n", p, m, bitops.VIDOf(bitops.PID(p), target, m))
	}
	return sb.String()
}
