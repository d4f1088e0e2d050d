package spec

import "fmt"

// VariantKeys returns one canonical configuration key per expanded variant,
// in grid order — the stable identity a distributed sweep leases by — and,
// from the same expansion, each variant's applied configuration: the base
// with the variant's overrides set, before resolution. Each key is CanonKey
// of that configuration resolved, so two processes holding the same document
// (and the same component registry) compute the same list independently; a
// coordinator compares digests of these lists before handing out (key,
// index) leases, turning registry or version skew between binaries into a
// handshake error instead of silently divergent rows.
//
// Indices align with ExpandVariants, the implicit "run" variant included,
// and so with the compiled Definition's variant list.
func (e Experiment) VariantKeys() ([]string, []Config, error) {
	variants, err := e.ExpandVariants()
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, len(variants))
	cfgs := make([]Config, len(variants))
	for i, v := range variants {
		cfg, err := e.ConfigFor(v)
		if err != nil {
			return nil, nil, err
		}
		resolved, err := cfg.Resolve()
		if err != nil {
			return nil, nil, fmt.Errorf("spec: variant %q: %w", v.Label, err)
		}
		key, err := CanonKey(resolved)
		if err != nil {
			return nil, nil, fmt.Errorf("spec: variant %q: %w", v.Label, err)
		}
		keys[i], cfgs[i] = key, cfg
	}
	return keys, cfgs, nil
}
