package store

import (
	"rover/internal/rdo"
	"rover/internal/urn"
)

// OpsRec is one per-object history entry: the invocations that produced
// version Ver, tagged with the client that exported them (Src, empty when
// untagged) so a redelivered export can be recognized as already committed.
type OpsRec struct {
	Ver  uint64
	Invs []rdo.Invocation
	Src  string
}

// History is the in-memory Store's bounded per-object invocation-history
// window — the raw material for delta imports (OpsSince) and for
// recognizing redelivered exports (WasCommitted); the disk backend reads
// the same window from its segment's record chain instead. Entry i of an
// object's window carries the ops that advanced the object TO version
// window[i].Ver; only ops commits record history, and an opaque state jump
// (plain Commit, install, snapshot load) clears the object's window because
// a delta spanning it cannot be represented.
//
// History is NOT safe for concurrent use: it is a building block that runs
// under its owning backend's lock.
type History struct {
	limit int // 0 selects DefaultHistoryLimit; negative disables
	m     map[urn.URN][]OpsRec
}

// NewHistory returns an empty history with the default limit.
func NewHistory() *History {
	return &History{m: make(map[urn.URN][]OpsRec)}
}

// SetLimit changes the retained window: 0 restores DefaultHistoryLimit, a
// negative value disables history entirely and drops everything retained.
// Shrinking prunes existing windows immediately.
func (h *History) SetLimit(n int) {
	h.limit = n
	if n < 0 {
		h.m = make(map[urn.URN][]OpsRec)
		return
	}
	limit := h.effectiveLimit()
	for u, w := range h.m {
		if len(w) > limit {
			h.m[u] = append([]OpsRec(nil), w[len(w)-limit:]...)
		}
	}
}

func (h *History) effectiveLimit() int {
	if h.limit == 0 {
		return DefaultHistoryLimit
	}
	return h.limit
}

// Record appends the ops that produced version ver, keeping invs itself: the
// caller hands it over and must not modify it afterwards. A full window
// slides down one entry in place. The caller must treat a false return as
// an opaque jump and is responsible for having cleared the window (Record
// with disabled history or no invocations records nothing).
func (h *History) Record(u urn.URN, ver uint64, invs []rdo.Invocation, src string) bool {
	if h.limit < 0 || len(invs) == 0 {
		return false
	}
	w := h.m[u]
	if limit := h.effectiveLimit(); len(w) >= limit {
		w = w[:copy(w, w[len(w)-limit+1:])]
	}
	h.m[u] = append(w, OpsRec{Ver: ver, Invs: invs, Src: src})
	return true
}

// Clear drops one object's window (an opaque jump).
func (h *History) Clear(u urn.URN) { delete(h.m, u) }

// ClearAll drops every window (snapshot load).
func (h *History) ClearAll() { h.m = make(map[urn.URN][]OpsRec) }

// OpsSince returns the invocations that advance the object from version
// `from` to version cur, oldest first, with ok=true only when the window is
// contiguous over that whole span, and the step's source when it is one
// step (see Store.OpsSince for the contract).
func (h *History) OpsSince(u urn.URN, from, cur uint64) ([]rdo.Invocation, uint64, string, bool) {
	if from >= cur {
		return nil, 0, "", false
	}
	w := h.m[u]
	start := -1
	for i, rec := range w {
		if rec.Ver == from+1 {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, 0, "", false
	}
	want := from
	var out []rdo.Invocation
	for _, rec := range w[start:] {
		if rec.Ver != want+1 {
			return nil, 0, "", false
		}
		want = rec.Ver
		out = append(out, rec.Invs...)
	}
	if want != cur {
		return nil, 0, "", false
	}
	if cur == from+1 {
		return out, cur, w[start].Src, true
	}
	return out, cur, "", true
}

// WasCommitted reports whether the export (base, invs, src) is already
// reflected in the window: src's identical invocations were committed at
// version base+1 (see Store.WasCommitted for why this closes the
// at-most-once window).
func (h *History) WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	if src == "" || len(invs) == 0 {
		return false
	}
	for _, rec := range h.m[u] {
		if rec.Ver == base+1 {
			return rec.Src == src && SameInvocations(rec.Invs, invs)
		}
	}
	return false
}

// SameInvocations reports whether a and b are the same invocations, in the
// same order: the test that tells a redelivered export from a new one.
func SameInvocations(a, b []rdo.Invocation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !invEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}
