package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"divflow/internal/sim"
)

// DefaultPolicy is the policy a Server runs when none is configured: the
// paper's online max-weighted-flow adaptation with the lazy plan cache, so
// the exact solver runs only when the residual workload actually changes.
const DefaultPolicy = "online-mwf-lazy"

// ErrUnknownPolicy marks a policy name this build does not serve.
var ErrUnknownPolicy = errors.New("server: unknown policy")

// policyFactories maps API/flag names to constructors: the paper's online
// max-weighted-flow re-solve, divisible and preemptive (the baselines stay in
// internal/sim). Each Server gets a fresh instance (policies carry run state).
var policyFactories = map[string]func() sim.Policy{
	"online-mwf-lazy":    func() sim.Policy { return sim.NewOnlineMWFLazy() },
	"online-mwf-preempt": func() sim.Policy { return sim.NewOnlineMWFPreemptive() },
}

// Policies lists the selectable policy names, sorted.
func Policies() []string {
	out := make([]string, 0, len(policyFactories))
	for name := range policyFactories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewPolicy builds the named policy ("" selects DefaultPolicy).
func NewPolicy(name string) (sim.Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	mk, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownPolicy, name, strings.Join(Policies(), ", "))
	}
	return mk(), nil
}
