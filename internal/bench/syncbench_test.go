package bench

import "testing"

// TestCommProbe: the traced probe yields live counters — nonzero
// bytes/round, compression ratio ≥ 1, and the deliberate silent rounds
// (every third) surfacing as a nonzero invariant-skip share.
func TestCommProbe(t *testing.T) {
	p := TestParams()
	c, err := CommProbe(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesPerRound <= 0 {
		t.Fatalf("bytes/round = %v, want > 0", c.BytesPerRound)
	}
	if c.CompressionRatio < 1 {
		t.Fatalf("compression ratio = %v, want >= 1", c.CompressionRatio)
	}
	// 2 silent rounds of 6; allow slack for round attribution at the edges
	// but the share must be clearly nonzero.
	if c.InvariantSkipShare < 0.2 || c.InvariantSkipShare > 0.5 {
		t.Fatalf("invariant skip share = %v, want ~1/3", c.InvariantSkipShare)
	}
}
