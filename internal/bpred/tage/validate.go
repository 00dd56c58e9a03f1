package tage

import "fmt"

// Upper bounds Validate enforces. They sit far above any useful
// predictor (the default is a 16K bimodal and four 2K tagged tables) and
// exist so a request cannot make the simulator allocate without limit.
const (
	MaxBimodalEntries = 1 << 22
	MaxTables         = 16
	MaxTableEntries   = 1 << 20
	MaxTagBits        = 16 // tags are stored in 16 bits
	MaxHistoryLen     = 4096
	MaxUDecayInterval = 1 << 30
)

// Validate rejects a configuration New cannot build sensibly: negative
// or oversized sizes, tags narrower than 2 bits (the second folded tag
// register is TagBits-1 wide), tagged tables of a single entry (their
// index has no bits to fold history into), and a minimum history longer
// than the maximum. Zero fields mean "default" and are always valid.
func (c Config) Validate() error {
	for _, f := range []struct {
		name  string
		v, lo int
		hi    int
	}{
		{"bimodal_entries", c.BimodalEntries, 1, MaxBimodalEntries},
		{"tables", c.Tables, 1, MaxTables},
		{"table_entries", c.TableEntries, 2, MaxTableEntries},
		{"tag_bits", c.TagBits, 2, MaxTagBits},
		{"min_history", c.MinHistory, 1, MaxHistoryLen},
		{"max_history", c.MaxHistory, 1, MaxHistoryLen},
		{"u_decay_interval", c.UDecayInterval, 1, MaxUDecayInterval},
	} {
		if f.v != 0 && (f.v < f.lo || f.v > f.hi) {
			return fmt.Errorf("tage: %s %d out of range [%d, %d] (0 = default)", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.MinHistory != 0 && c.MaxHistory != 0 && c.MinHistory > c.MaxHistory {
		return fmt.Errorf("tage: min_history %d exceeds max_history %d", c.MinHistory, c.MaxHistory)
	}
	return nil
}
