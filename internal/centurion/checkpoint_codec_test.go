package centurion

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// TestCheckpointCodecRejectsVersion1 pins the format bumps: version 1
// carried per-tile active sets and staging counters, and version 2 the
// network's hop-row contents, that the current layout no longer has, so
// older files must be refused by their header instead of being misread.
func TestCheckpointCodecRejectsVersion1(t *testing.T) {
	p := New(DefaultConfig(aim.NewNone, taskgraph.HeuristicMapper{}, 1))
	p.RunFor(sim.Ms(5), nil)
	for _, v := range []uint16{1, 2} {
		data := EncodeCheckpoint(p.Snapshot())
		binary.LittleEndian.PutUint16(data[8:10], v)
		_, err := DecodeCheckpoint(data)
		if want := fmt.Sprintf("unsupported checkpoint version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d checkpoint: got %v, want an unsupported checkpoint version error", v, err)
		}
	}
}
