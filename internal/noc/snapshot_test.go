package noc

import (
	"strings"
	"testing"

	"centurion/internal/wire"
)

// TestNetworkStateDecodeRejectsLengthMismatch re-encodes a state with one
// section cut short (or padded) against its shape header. The checksum of a
// checkpoint file would still match, so the decoder itself must refuse it —
// LoadState sizes its loops by the header and would otherwise panic.
func TestNetworkStateDecodeRejectsLengthMismatch(t *testing.T) {
	topo := NewMesh(4, 4)
	n := NewNetwork(topo, DefaultConfig())
	n.SetByzantine(topo.ID(Coord{1, 1}), 1<<31, ByzDrop, 7)
	var good NetworkState
	n.SaveState(&good)

	decode := func(st *NetworkState) error {
		var out NetworkState
		return out.DecodeBinary(wire.NewReader(st.AppendBinary(nil)))
	}
	if err := decode(&good); err != nil {
		t.Fatalf("intact state rejected: %v", err)
	}

	for _, tc := range []struct {
		name, want string
		cut        func(st *NetworkState)
	}{
		{"router records", "router records", func(st *NetworkState) { st.recs = st.recs[:len(st.recs)-1] }},
		{"cold records", "cold records", func(st *NetworkState) { st.cold = st.cold[:len(st.cold)-1] }},
		{"ring slots", "ring slots", func(st *NetworkState) { st.slots = st.slots[:len(st.slots)-1] }},
		{"byzantine records", "byzantine records", func(st *NetworkState) { st.byz = st.byz[:len(st.byz)-1] }},
		{"byzantine records without arming", "byzantine records", func(st *NetworkState) { st.hasByz = false }},
	} {
		st := good
		tc.cut(&st)
		err := decode(&st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
