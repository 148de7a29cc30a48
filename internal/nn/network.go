package nn

import (
	"fmt"

	"middle/internal/tensor"
)

// Network is a sequential feed-forward stack of layers.
type Network struct {
	Layers []Layer

	// params caches the flattened parameter list. The layer stack is
	// fixed at construction, so the cache never needs invalidation; it is
	// built lazily on first use so zero-value Networks still work.
	params     []*Param
	numParams  int
	firstParam int // index of the first layer that has parameters
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the batch through all layers.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward pushes the output gradient back through the layers, setting
// every parameter gradient. Nothing trains on the gradient with
// respect to the network's input, so the walk ends at the first layer
// that has parameters: it runs only the parameter half of its Backward,
// no layer below it (a Flatten in front of an MLP, say) is called, and
// the result is always nil.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n.Params()
	first := n.firstParam
	for i := len(n.Layers) - 1; i > first; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	switch l := n.Layers[first].(type) {
	case *Conv2D:
		l.backwardParams(grad)
	case *Conv1D:
		l.backwardParams(grad)
	case *Linear:
		l.backwardParams(grad)
	default:
		l.Backward(grad)
	}
	return nil
}

// Params collects all trainable parameters in layer order. The slice is
// cached (layers are fixed at construction); callers must not mutate it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for i, l := range n.Layers {
			if len(n.params) == 0 {
				n.firstParam = i
			}
			n.params = append(n.params, l.Params()...)
		}
		for _, p := range n.params {
			n.numParams += p.Value.Size()
		}
	}
	return n.params
}

// ZeroGrad clears every parameter gradient (see Param.ZeroGrad: training
// does not need it).
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	n.Params()
	return n.numParams
}

// ParamVector copies all parameter values into a single flat vector in
// layer order. This is the model representation the federated aggregation
// rules operate on.
func (n *Network) ParamVector() []float64 {
	v := make([]float64, n.NumParams())
	n.ParamVectorInto(v)
	return v
}

// ParamVectorInto copies all parameter values into v, which must have
// length NumParams(). It performs no allocation.
func (n *Network) ParamVectorInto(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: ParamVectorInto destination has length %d, want %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		off += copy(v[off:], p.Value.Data)
	}
}

// SetParamVector loads a flat vector (as produced by ParamVector) back
// into the parameters.
func (n *Network) SetParamVector(v []float64) {
	off := 0
	for _, p := range n.Params() {
		sz := p.Value.Size()
		if off+sz > len(v) {
			panic(fmt.Sprintf("nn: SetParamVector vector too short: have %d, need >= %d", len(v), off+sz))
		}
		copy(p.Value.Data, v[off:off+sz])
		off += sz
	}
	if off != len(v) {
		panic(fmt.Sprintf("nn: SetParamVector vector too long: have %d, consumed %d", len(v), off))
	}
}

// GradVector copies all parameter gradients into a single flat vector in
// layer order.
func (n *Network) GradVector() []float64 {
	v := make([]float64, n.NumParams())
	n.GradVectorInto(v)
	return v
}

// GradVectorInto copies all parameter gradients into v, which must have
// length NumParams(). It performs no allocation.
func (n *Network) GradVectorInto(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: GradVectorInto destination has length %d, want %d", len(v), n.NumParams()))
	}
	off := 0
	for _, p := range n.Params() {
		off += copy(v[off:], p.Grad.Data)
	}
}
