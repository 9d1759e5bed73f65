// Package sim seeds ratalias violations: *big.Rat values that arrive through
// a field, parameter, or element and escape — returned, stored, or packed
// into a composite literal — without a copy; and struct values that carry them.
// exact.Q values, which hold a *big.Rat nothing writes, copy freely.
package sim

import (
	"math/big"

	"divflow/internal/exact"
)

type Job struct {
	Weight *big.Rat
	Size   *big.Rat
}

type View struct {
	W *big.Rat
}

func (j *Job) WeightView() *big.Rat {
	return j.Weight // want `ratalias: returns \*big\.Rat aliased from field Weight`
}

func (j *Job) WeightCopy() *big.Rat {
	return new(big.Rat).Set(j.Weight)
}

func Passthrough(r *big.Rat) *big.Rat {
	return r // want `ratalias: returns \*big\.Rat aliased from parameter r`
}

func Capture(j *Job, v *View) {
	v.W = j.Size // want `ratalias: stores \*big\.Rat aliased from field Size`
}

func CaptureLocal(j *Job, v *View) {
	w := j.Size
	v.W = w // want `ratalias: stores \*big\.Rat aliased from field Size`
}

func Pick(m map[int]*big.Rat) *big.Rat {
	return m[0] // want `ratalias: returns \*big\.Rat aliased from map element`
}

func Lit(j *Job) View {
	return View{W: j.Weight} // want `ratalias: stores \*big\.Rat aliased from field Weight into a composite literal`
}

func TransferOwnership(j *Job) *big.Rat {
	return j.Weight //divflow:ratalias-ok fixture: ownership transfer, the job is discarded
}

// A struct value carrying rationals aliases every one of them when copied.

type Record struct {
	ID int
	Job
}

func (j Job) Clone() Job {
	j.Weight, j.Size = new(big.Rat).Set(j.Weight), new(big.Rat).Set(j.Size)
	return j
}

func (j Job) HalfClone() Job {
	j.Weight = new(big.Rat).Set(j.Weight)
	return j // want `ratalias: returns a struct value carrying \*big\.Rat aliased from parameter j`
}

func Embed(rec *Record, job Job) {
	rec.Job = job // want `ratalias: stores a struct value carrying \*big\.Rat aliased from parameter job without a copy; clone it`
}

func EmbedLit(src *Record) Record {
	return Record{ID: 1, Job: src.Job} // want `ratalias: stores a struct value carrying \*big\.Rat aliased from field Job into a composite literal`
}

func EmbedClone(rec *Record, job Job) {
	rec.Job = job.Clone()
}

// An exact.Q is a value: copying one out of a field, a map or a parameter
// shares nothing that can change.

type Plan struct {
	At  exact.Q
	Rem map[int]exact.Q
}

func Fingerprint(p *Plan, at exact.Q, id int) exact.Q {
	p.At = at
	p.Rem[id] = p.At
	_ = Plan{At: p.Rem[id]}
	return p.Rem[id]
}
