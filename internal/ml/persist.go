package ml

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"vqoe/internal/qualitymon"
)

// Persistence: trained forests serialize to a self-describing gob
// stream so that an operator can train once on cleartext ground truth
// and deploy the frozen model against live encrypted traffic.

// nodeDTO is the exported on-wire form of a tree node.
type nodeDTO struct {
	Feature     int
	Threshold   float64
	Leaf        bool
	Dist        []float64
	Left, Right *nodeDTO
}

// forestDTO is the exported on-wire form of a Forest.
//
// Wire-format evolution rides gob's field matching: Version and
// Baseline were added for quality monitoring, and gob ignores absent
// fields in both directions, so pre-baseline model files decode with
// Version 0 and a nil Baseline (the monitor then reports "no
// baseline" instead of erroring) while old binaries skip the new
// fields of new files.
type forestDTO struct {
	Features []string
	Classes  []string
	Trees    []*nodeDTO
	Version  int
	Baseline *qualitymon.Baseline
}

// forestWireVersion is written into new model files; version 0 marks a
// pre-baseline file.
const forestWireVersion = 2

func toDTO(n *node) *nodeDTO {
	if n == nil {
		return nil
	}
	return &nodeDTO{
		Feature:   n.feature,
		Threshold: n.threshold,
		Leaf:      n.leaf,
		Dist:      n.dist,
		Left:      toDTO(n.left),
		Right:     toDTO(n.right),
	}
}

// fromDTO rebuilds one subtree from its wire form, refusing what the
// prediction paths would trip over: a missing child, a split on a
// column the schema does not have, a leaf distribution that is not one
// finite value per class, a tree deeper than maxTreeDepth.
func fromDTO(d *nodeDTO, numFeatures, numClasses, depth int) (*node, error) {
	switch {
	case d == nil:
		return nil, fmt.Errorf("missing node at depth %d", depth)
	case depth > maxTreeDepth:
		return nil, fmt.Errorf("deeper than %d", maxTreeDepth)
	case d.Leaf:
		if len(d.Dist) != numClasses {
			return nil, fmt.Errorf("leaf has %d class weights, want %d", len(d.Dist), numClasses)
		}
		for _, p := range d.Dist {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("leaf has non-finite class weight %v", p)
			}
		}
		return &node{leaf: true, dist: d.Dist}, nil
	case d.Feature < 0 || d.Feature >= numFeatures:
		return nil, fmt.Errorf("split on feature %d of %d", d.Feature, numFeatures)
	}
	left, err := fromDTO(d.Left, numFeatures, numClasses, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := fromDTO(d.Right, numFeatures, numClasses, depth+1)
	if err != nil {
		return nil, err
	}
	return &node{feature: d.Feature, threshold: d.Threshold, left: left, right: right}, nil
}

// Save writes the forest to w.
func (f *Forest) Save(w io.Writer) error {
	dto := forestDTO{
		Features: f.Features,
		Classes:  f.Classes,
		Trees:    make([]*nodeDTO, len(f.Trees)),
		Version:  forestWireVersion,
		Baseline: f.Baseline,
	}
	for i, t := range f.Trees {
		dto.Trees[i] = toDTO(t.root)
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// LoadForest reads a forest previously written with Save. A model file
// is outside input: anything in it that would panic or mispredict at
// serve time is an error here (see fromDTO and Baseline.Check).
func LoadForest(r io.Reader) (*Forest, error) {
	var dto forestDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("ml: decoding forest: %w", err)
	}
	if len(dto.Trees) == 0 {
		return nil, fmt.Errorf("ml: forest has no trees")
	}
	if len(dto.Classes) == 0 {
		return nil, fmt.Errorf("ml: forest has no classes")
	}
	if err := dto.Baseline.Check(len(dto.Features), len(dto.Classes)); err != nil {
		return nil, fmt.Errorf("ml: forest baseline: %w", err)
	}
	f := &Forest{
		Features:   dto.Features,
		Classes:    dto.Classes,
		Trees:      make([]*Tree, len(dto.Trees)),
		numClasses: len(dto.Classes),
		Baseline:   dto.Baseline,
	}
	for i, d := range dto.Trees {
		root, err := fromDTO(d, len(f.Features), f.numClasses, 0)
		if err != nil {
			return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
		}
		// the wire format stays pointer-shaped (gob-friendly); the flat
		// slabs the prediction paths walk are rebuilt on load
		f.Trees[i] = &Tree{root: root, flat: compile(root, f.numClasses), numClasses: f.numClasses}
	}
	return f, nil
}
