package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/stats"
)

// New constructs the mitigation selected by sys.Mitigation.
func New(mem *dram.Memory, sys config.System, rng *stats.RNG) (Mitigation, error) {
	m := sys.Mitigation
	if err := m.Validate(); err != nil {
		return nil, err
	}
	switch m.Kind {
	case config.MitigationNone:
		return Baseline{}, nil
	case config.MitigationRRS:
		return NewRRS(mem, sys, m, rng), nil
	case config.MitigationSRS:
		return NewSRS(mem, sys, m, rng), nil
	case config.MitigationScaleSRS:
		return NewScaleSRS(mem, sys, m, rng), nil
	case config.MitigationBlockHammer:
		return NewBlockHammer(mem, sys, m, rng), nil
	case config.MitigationAQUA:
		return NewAQUA(mem, sys, m, rng), nil
	default:
		return nil, fmt.Errorf("core: unknown mitigation kind %v", m.Kind)
	}
}

// NameOf returns the Name the mitigation New builds for m would report,
// without building it.
func NameOf(m config.Mitigation) string {
	if m.Kind == config.MitigationRRS && !m.ImmediateUnswap {
		return "rrs-nounswap"
	}
	return m.Kind.String()
}
