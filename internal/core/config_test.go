package core

import (
	"errors"
	"testing"

	"pandas/internal/obsv"
)

// The stock configurations must validate as-is: the observability knobs
// default to a nil recorder, nil registry, and a positive ring size.
func TestStockConfigsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"test":    TestConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", name, err)
		}
		if cfg.Recorder != nil || cfg.Metrics != nil {
			t.Errorf("%s config: tracing must be off by default", name)
		}
		if cfg.TraceRing != obsv.DefaultRingSize {
			t.Errorf("%s config: TraceRing = %d, want %d", name, cfg.TraceRing, obsv.DefaultRingSize)
		}
	}
}

// Enabling observability must survive a validation round trip unchanged.
func TestConfigValidateWithObservability(t *testing.T) {
	cfg := TestConfig()
	cfg.Recorder = obsv.MustRing(64)
	cfg.Metrics = obsv.NewRegistry()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config with recorder+registry invalid: %v", err)
	}
}

func TestConfigValidateRejectsBadTraceRing(t *testing.T) {
	for _, bad := range []int{0, -1, -65536} {
		cfg := TestConfig()
		cfg.TraceRing = bad
		err := cfg.Validate()
		if err == nil {
			t.Errorf("TraceRing=%d accepted", bad)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("TraceRing=%d: error %v does not wrap ErrBadConfig", bad, err)
		}
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := map[string]func(*Config){
		"samples-zero":    func(c *Config) { c.Samples = 0 },
		"policy-unknown":  func(c *Config) { c.Policy = Policy(99) },
		"deadline-zero":   func(c *Config) { c.Deadline = 0 },
		"redundancy-zero": func(c *Config) { c.Policy = PolicyRedundant; c.Redundancy = 0 },
		"assign-mismatch": func(c *Config) { c.Assign.N = c.Blob.N() + 2 },
		"trace-ring-zero": func(c *Config) { c.TraceRing = 0 },
	}
	for name, mutate := range mutations {
		cfg := TestConfig()
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate() = %v, want ErrBadConfig", name, err)
		}
	}
}
