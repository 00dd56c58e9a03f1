package h2p

import "fmt"

// Upper bounds Validate enforces. They sit far above any useful filter
// or side table (the defaults are 2K and 4K entries) and exist so a
// request cannot make the simulator allocate without limit.
const (
	MaxFilterEntries = 1 << 20
	MaxFilterTagBits = 16 // tags are stored in 16 bits
	MaxCount         = 1 << 15
	MaxSideEntries   = 1 << 20
	MaxSideHistBits  = 32
	MaxConfidence    = 4 // 3-bit side counters
)

// Validate rejects a configuration New cannot build sensibly: negative
// or oversized sizes, tags narrower than 2 bits or wider than the 16-bit
// tag store, thresholds and windows beyond the 16-bit counters, and a
// side confidence outside 1..4. Zero fields mean "default" and are
// always valid.
func (c Config) Validate() error {
	for _, f := range []struct {
		name  string
		v, lo int
		hi    int
	}{
		{"filter_entries", c.FilterEntries, 1, MaxFilterEntries},
		{"filter_tag_bits", c.FilterTagBits, 2, MaxFilterTagBits},
		{"h2p_threshold", c.H2PThreshold, 1, MaxCount},
		{"filter_window", c.FilterWindow, 1, MaxCount},
		{"side_entries", c.SideEntries, 1, MaxSideEntries},
		{"side_hist_bits", c.SideHistBits, 1, MaxSideHistBits},
		{"side_confidence", c.SideConfidence, 1, MaxConfidence},
	} {
		if f.v != 0 && (f.v < f.lo || f.v > f.hi) {
			return fmt.Errorf("h2p: %s %d out of range [%d, %d] (0 = default)", f.name, f.v, f.lo, f.hi)
		}
	}
	return nil
}
