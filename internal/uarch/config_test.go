package uarch

import "testing"

// TestCatalogConfigsValidate: every named config must pass the check the
// fabric decoder applies, or a fleet would refuse a sweep's own units.
func TestCatalogConfigsValidate(t *testing.T) {
	cfgs := []*Config{ConfigByName("p9"), ConfigByName("p10"), ConfigByName("p10-nomma")}
	for _, c := range catalogConfigs() {
		cfgs = append(cfgs, c)
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestValidateRejectsUnbuildableConfigs(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero fetch width":       func(c *Config) { c.FetchWidth = 0 },
		"negative ROB":           func(c *Config) { c.InstrTableEntries = -1 },
		"SMT beyond counters":    func(c *Config) { c.SMTMax = 9 },
		"zero L1D line":          func(c *Config) { c.L1D.LineBytes = 0 },
		"zero L1D assoc":         func(c *Config) { c.L1D.Assoc = 0 },
		"absent L1I":             func(c *Config) { c.L1I = CacheParams{} },
		"odd L2 line":            func(c *Config) { c.L2.LineBytes = 96 },
		"L3 smaller than a set":  func(c *Config) { c.L3.SizeBytes = 128 },
		"huge L2":                func(c *Config) { c.L2.SizeBytes = 1 << 40 },
		"negative latency":       func(c *Config) { c.Latency[0] = -1 },
		"page not a power of 2":  func(c *Config) { c.PageBytes = 3000 },
		"MMA without throughput": func(c *Config) { c.MMAThroughput = 0 },
	} {
		c := POWER10()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// An absent L3 is the infinite-L2 core model, not an error.
	if err := InfiniteL2(POWER10()).Validate(); err != nil {
		t.Error(err)
	}
}
