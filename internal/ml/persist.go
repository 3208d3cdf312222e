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

// nodeDTO is the exported on-wire form of a tree node, and the
// pointer-shaped tree the tests walk as the slab's reference.
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

// toDTO renders the subtree at slab index i in its pointer-shaped wire
// form.
func (t *Tree) toDTO(i int32) *nodeDTO {
	n := t.nodes[i]
	if n.feature < 0 {
		return &nodeDTO{Leaf: true, Dist: t.dists[n.right : n.right+int32(t.numClasses)]}
	}
	return &nodeDTO{
		Feature:   int(n.feature),
		Threshold: n.threshold,
		Left:      t.toDTO(i + 1),
		Right:     t.toDTO(n.right),
	}
}

// fromDTO appends one subtree from its wire form to the slab in
// preorder, refusing what the prediction paths would trip over: a
// missing child, a split on a column the schema does not have, a leaf
// distribution that is not one finite value per class, a tree deeper
// than maxTreeDepth. A node is appended only after it passes, so the
// slab never holds an unchecked record.
func (t *Tree) fromDTO(d *nodeDTO, numFeatures, depth int) error {
	switch {
	case d == nil:
		return fmt.Errorf("missing node at depth %d", depth)
	case depth > maxTreeDepth:
		return fmt.Errorf("deeper than %d", maxTreeDepth)
	case d.Leaf:
		if len(d.Dist) != t.numClasses {
			return fmt.Errorf("leaf has %d class weights, want %d", len(d.Dist), t.numClasses)
		}
		for _, p := range d.Dist {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("leaf has non-finite class weight %v", p)
			}
		}
		t.nodes = append(t.nodes, node{feature: -1, right: int32(len(t.dists))})
		t.dists = append(t.dists, d.Dist...)
		return nil
	case d.Feature < 0 || d.Feature >= numFeatures:
		return fmt.Errorf("split on feature %d of %d", d.Feature, numFeatures)
	}
	i := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: int32(d.Feature), threshold: d.Threshold})
	if err := t.fromDTO(d.Left, numFeatures, depth+1); err != nil {
		return err
	}
	t.nodes[i].right = int32(len(t.nodes))
	return t.fromDTO(d.Right, numFeatures, depth+1)
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
		dto.Trees[i] = t.toDTO(0)
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
		// the wire format stays pointer-shaped (gob-friendly); the
		// slab the prediction paths walk is written as it is checked
		t := &Tree{numClasses: f.numClasses}
		if err := t.fromDTO(d, len(f.Features), 0); err != nil {
			return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
		}
		f.Trees[i] = t
	}
	f.scan = newScanTables(f.Trees, f.numClasses)
	return f, nil
}
