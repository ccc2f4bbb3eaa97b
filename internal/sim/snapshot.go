package sim

// Checkpoint support (DESIGN.md §15). The sim primitives expose just enough
// of their internals for a platform snapshot to capture and rewind them:
// raw RNG state, absolute clock position, and active-set membership. The
// event queue is deliberately NOT snapshottable — it holds closures — so
// restore paths rebuild pending events from higher-level records instead.

// State returns the generator's raw internal state. Together with SetState
// it allows a stream to be captured and replayed bit-identically.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds the generator to a state previously returned by State.
func (r *RNG) SetState(s uint64) { r.state = s }

// SetNow moves the clock to an absolute tick. Unlike Advance it may move
// time backwards; it exists only for checkpoint restore.
func (c *Clock) SetNow(t Tick) { c.now = t }

// ActiveSetState is a deep copy of an ActiveSet's membership, suitable for
// storing in a checkpoint and restoring into any same-sized set.
type ActiveSetState struct {
	Words []uint64
	N     int
}

// SaveState copies the set's membership into st, reusing st's backing
// storage when it is large enough.
func (s *ActiveSet) SaveState(st *ActiveSetState) {
	st.Words = append(st.Words[:0], s.words...)
	st.N = s.n
}

// LoadState overwrites the set's membership from st. The target set must
// have been sized for the same population.
func (s *ActiveSet) LoadState(st *ActiveSetState) {
	if len(st.Words) != len(s.words) {
		panic("sim: ActiveSet restore size mismatch")
	}
	copy(s.words, st.Words)
	s.n = st.N
}
