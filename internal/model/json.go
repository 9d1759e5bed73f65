package model

import (
	"encoding/json"
	"math/big"
)

// The JSON encoding keeps every rational exact by encoding it as a string in
// big.Rat notation ("3/2", "10"). An instance document looks like:
//
//	{
//	  "jobs": [{"name":"J0","release":"0","weight":"1","size":"10","databanks":["swissprot"]}],
//	  "machines": [{"name":"M0","inverseSpeed":"1/2","databanks":["swissprot"]}],
//	  "cost": [["5", null]]        // optional; omit to derive from the uniform model
//	}

// Jobs and machines encode through their own struct tags; a null cost entry
// is +∞.
type jsonInstance struct {
	Jobs     []Job        `json:"jobs"`
	Machines []Machine    `json:"machines"`
	Cost     [][]*big.Rat `json:"cost,omitempty"`
}

// MarshalJSON encodes the instance with exact rationals.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonInstance{Jobs: in.Jobs, Machines: in.Machines, Cost: in.cost})
}

// UnmarshalJSON decodes an instance document. When the "cost" matrix is
// absent, costs are derived from the uniform-with-restrictions model (sizes
// and inverse speeds must then be present).
func (in *Instance) UnmarshalJSON(data []byte) error {
	var doc jsonInstance
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	var built *Instance
	var err error
	if doc.Cost == nil {
		built, err = NewInstance(doc.Jobs, doc.Machines)
	} else {
		built, err = NewUnrelated(doc.Jobs, doc.Machines, doc.Cost)
	}
	if err != nil {
		return err
	}
	*in = *built
	return nil
}
