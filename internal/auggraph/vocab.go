package auggraph

// Vocab maps heterogeneous node kinds and textual attributes to dense
// integer IDs for the neural models. Index 0 of each table is reserved for
// unknown/out-of-vocabulary entries so a model trained on one corpus can be
// applied to another.
//
// Concurrency: a Vocab has two phases. While it is being built, Add (and
// RestoreLists) mutate the tables and must run from a single goroutine —
// insertion order defines the IDs, so concurrent Adds would also destroy
// determinism. Once building is done, every other method (Encode, the ID
// lookups, the size accessors) only reads and is safe to call from any
// number of goroutines. This is the guarantee the concurrent analysis
// pipeline relies on.
type Vocab struct {
	Kinds map[string]int
	Attrs map[string]int
	Types map[string]int

	kindList []string
	attrList []string
	typeList []string
}

// NewVocab returns an empty vocabulary with the reserved unknown entries.
func NewVocab() *Vocab {
	v := &Vocab{
		Kinds: map[string]int{"<unk>": 0},
		Attrs: map[string]int{"<unk>": 0},
		Types: map[string]int{"<unk>": 0},
	}
	v.kindList = []string{"<unk>"}
	v.attrList = []string{"<unk>"}
	v.typeList = []string{"<unk>"}
	return v
}

// Add registers every kind/attr/type that occurs in g. It mutates the
// vocabulary and must not be called concurrently (see the Vocab doc).
func (v *Vocab) Add(g *Graph) {
	for _, n := range g.Nodes {
		if _, ok := v.Kinds[n.Kind]; !ok {
			v.Kinds[n.Kind] = len(v.kindList)
			v.kindList = append(v.kindList, n.Kind)
		}
		if _, ok := v.Attrs[n.Attr]; !ok {
			v.Attrs[n.Attr] = len(v.attrList)
			v.attrList = append(v.attrList, n.Attr)
		}
		if _, ok := v.Types[n.TypeAttr]; !ok {
			v.Types[n.TypeAttr] = len(v.typeList)
			v.typeList = append(v.typeList, n.TypeAttr)
		}
	}
}

// NumKinds returns the node-kind table size.
func (v *Vocab) NumKinds() int { return len(v.kindList) }

// NumAttrs returns the attribute table size.
func (v *Vocab) NumAttrs() int { return len(v.attrList) }

// NumTypes returns the type-attribute table size.
func (v *Vocab) NumTypes() int { return len(v.typeList) }

// KindID returns the ID for a kind (0 when unknown).
func (v *Vocab) KindID(kind string) int { return v.Kinds[kind] }

// AttrID returns the ID for an attribute (0 when unknown).
func (v *Vocab) AttrID(attr string) int { return v.Attrs[attr] }

// TypeID returns the ID for a type attribute (0 when unknown).
func (v *Vocab) TypeID(typ string) int { return v.Types[typ] }

// KindNames returns the kinds in ID order.
func (v *Vocab) KindNames() []string { return v.kindList }

// AttrNames returns the attributes in ID order.
func (v *Vocab) AttrNames() []string { return v.attrList }

// TypeNames returns the type attributes in ID order.
func (v *Vocab) TypeNames() []string { return v.typeList }

// RestoreLists rebuilds the internal ID-ordered tables from serialized
// checkpoint data; the maps must already be populated consistently.
func (v *Vocab) RestoreLists(kinds, attrs, types []string) {
	v.kindList = append([]string(nil), kinds...)
	v.attrList = append([]string(nil), attrs...)
	v.typeList = append([]string(nil), types...)
}

// Encoded is the dense integer encoding of one graph, ready for the HGT.
type Encoded struct {
	KindIDs []int // per node
	AttrIDs []int // per node
	TypeIDs []int // per node
	Orders  []int // per node, clamped sibling order
	Edges   []Edge
	Root    int
}

// MaxOrder is the clamp for the sibling-order feature.
const MaxOrder = 7

// Encode converts g to integer features under the vocabulary. It is
// read-only and safe for concurrent use once building has finished.
func (v *Vocab) Encode(g *Graph) *Encoded {
	e := &Encoded{
		KindIDs: make([]int, len(g.Nodes)),
		AttrIDs: make([]int, len(g.Nodes)),
		TypeIDs: make([]int, len(g.Nodes)),
		Orders:  make([]int, len(g.Nodes)),
		Edges:   g.Edges,
		Root:    g.Root,
	}
	for i, n := range g.Nodes {
		e.KindIDs[i] = v.KindID(n.Kind)
		e.AttrIDs[i] = v.AttrID(n.Attr)
		e.TypeIDs[i] = v.TypeID(n.TypeAttr)
		o := n.Order
		if o > MaxOrder {
			o = MaxOrder
		}
		e.Orders[i] = o
	}
	return e
}
