// Package npr holds the pairs the pair rule decides.
package npr

// AssignQ and AssignQCtx are an allowlisted pair: pass.
func AssignQ() {}

// AssignQCtx is the allowlisted half.
func AssignQCtx() {}

// Run and RunCtx are a new pair: flagged.
func Run() {}

// RunCtx is the new half.
func RunCtx() {}

// Load and LoadOpts are a pair inside its migration window: pass.
func Load() {}

// LoadOpts is the old half.
//
// Deprecated: call Load.
func LoadOpts() {}
