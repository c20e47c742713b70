// Package analyzers bundles mobilint's static checks: the determinism
// contract of the discrete-event simulator plus the PR 3/5 runtime
// contracts (0-alloc hot paths, seed derivation, own-slot-only parallel
// writes), all enforced at build time. See DESIGN.md §7 for what each
// analyzer guards and why, and §12 for the analyzer ↔ runtime-contract
// table.
package analyzers

import (
	"mobicache/internal/analyzers/errchecksim"
	"mobicache/internal/analyzers/framework"
	"mobicache/internal/analyzers/hotalloc"
	"mobicache/internal/analyzers/maporder"
	"mobicache/internal/analyzers/nodeterminism"
	"mobicache/internal/analyzers/seedflow"
	"mobicache/internal/analyzers/sharedwrite"
)

// All returns every analyzer in the suite, in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		nodeterminism.Analyzer,
		maporder.Analyzer,
		errchecksim.Analyzer,
		hotalloc.Analyzer,
		seedflow.Analyzer,
		sharedwrite.Analyzer,
	}
}
