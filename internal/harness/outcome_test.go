package harness

import (
	"bytes"
	"strings"
	"testing"

	"zcover/internal/zcover/fuzz"
)

// malformedOutcomeBodies are well-formed JSON a coordinator worker can
// upload that are not outcomes any job produces: no kind, a campaign
// without its fuzz result, and kinds Table V has no job for in some slot.
var malformedOutcomeBodies = []struct {
	body      string
	decodeErr bool // DecodeOutcome itself must refuse the body
}{
	{`{}`, true},
	{`{"campaign":{}}`, true},
	{`{"covfuzz":{}}`, false},
	{`{"baseline":{}}`, false},
}

// TestMalformedOutcomeBodiesAreRefused: each body is refused either by
// DecodeOutcome or, standing in for a Table V job of another kind, by
// the Table V renderer with an error naming the row — never a panic.
func TestMalformedOutcomeBodiesAreRefused(t *testing.T) {
	for _, c := range malformedOutcomeBodies {
		out, err := DecodeOutcome([]byte(c.body))
		if c.decodeErr {
			if err == nil {
				t.Errorf("DecodeOutcome(%s) accepted a body with no valid outcome", c.body)
			}
			continue
		}
		if err != nil {
			t.Errorf("DecodeOutcome(%s): %v", c.body, err)
			continue
		}
		for slot := 0; slot < 2*len(table5Devices); slot++ {
			outs := make([]FleetOutcome, 2*len(table5Devices))
			for i := range outs {
				if i%2 == 0 {
					outs[i] = FleetOutcome{Baseline: &fuzz.Result{}}
				} else {
					outs[i] = FleetOutcome{Campaign: &Campaign{Fuzz: &fuzz.Result{}}}
				}
			}
			outs[slot] = out
			_, err := RenderCampaign("table5", outs)
			wantErr := !(slot%2 == 0 && out.Baseline != nil)
			row := "row " + table5Devices[slot/2]
			switch {
			case wantErr && (err == nil || !strings.Contains(err.Error(), row)):
				t.Errorf("%s in table5 slot %d: err = %v, want an error naming %q", c.body, slot, err, row)
			case !wantErr && err != nil:
				t.Errorf("%s in table5 slot %d: %v", c.body, slot, err)
			}
		}
	}
}

// FuzzDecodeOutcome fuzzes the journal/upload decoder: it must never
// panic, every body it accepts must hold exactly one outcome kind with a
// fuzz result, and one encode/decode round trip must reach a fixed point.
// The committed corpus holds a real ZCover, VFuzz and covfuzz outcome.
func FuzzDecodeOutcome(f *testing.F) {
	for _, c := range malformedOutcomeBodies {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		out, err := DecodeOutcome(body)
		if err != nil {
			return
		}
		kinds := 0
		for _, set := range []bool{out.Campaign != nil, out.Baseline != nil, out.CovFuzz != nil} {
			if set {
				kinds++
			}
		}
		if kinds != 1 || out.Fuzz() == nil {
			t.Fatalf("accepted %q with %d outcome kinds, Fuzz() = %v", body, kinds, out.Fuzz())
		}
		once, err := EncodeOutcome(out)
		if err != nil {
			t.Fatalf("re-encoding accepted body %q: %v", body, err)
		}
		back, err := DecodeOutcome(once)
		if err != nil {
			t.Fatalf("decoding own encoding %s: %v", once, err)
		}
		twice, err := EncodeOutcome(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encode/decode is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}
