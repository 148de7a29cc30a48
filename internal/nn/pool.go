package nn

import (
	"math"

	"middle/internal/tensor"
)

// MaxPool2D applies non-overlapping 2×2 max pooling with stride 2 over
// inputs of shape [N, C, H, W]; an odd trailing row or column is dropped.
type MaxPool2D struct {
	inShape []int
	argmax  []int // flat input index of each output element
	out     *tensor.Tensor
	dx      *tensor.Tensor
}

// NewMaxPool2D constructs a 2×2 max-pooling layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// Forward pools each 2×2 window to its maximum, one output row at a time
// through the branch-free tensor.MaxPool2x2Row kernel; in training mode it
// also records where each maximum came from, for Backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(shapeError("MaxPool2D", "[N, C, H, W]", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/2, w/2
	p.inShape = x.Shape()
	p.out = tensor.Ensure(p.out, n, c, oh, ow)
	out := p.out
	p.argmax = p.argmax[:0]
	if train {
		p.argmax = ensureLen(p.argmax, out.Size())
	}
	for plane := 0; plane < n*c; plane++ {
		for oy := 0; oy < oh; oy++ {
			in := plane*h*w + 2*oy*w
			o := (plane*oh + oy) * ow
			var arg []int
			if train {
				arg = p.argmax[o : o+ow]
			}
			tensor.MaxPool2x2Row(out.Data[o:o+ow], arg, x.Data[in:in+w], x.Data[in+w:in+2*w], in, w)
		}
	}
	return out
}

// Backward routes each output gradient to the argmax input position.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(p.argmax) != dy.Size() {
		panic(noTrainForward("MaxPool2D"))
	}
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	dx := p.dx
	dx.Zero()
	for oi, ii := range p.argmax {
		dx.Data[ii] += dy.Data[oi]
	}
	return dx
}

// Params returns nil: pooling has no trainable state.
func (p *MaxPool2D) Params() []*Param { return nil }

// MaxPool1D applies non-overlapping max pooling with window and stride K
// over inputs of shape [N, C, L].
type MaxPool1D struct {
	K int

	inShape []int
	argmax  []int
	out     *tensor.Tensor
	dx      *tensor.Tensor
}

// NewMaxPool1D constructs a 1-D max-pooling layer with window and stride k.
func NewMaxPool1D(k int) *MaxPool1D { return &MaxPool1D{K: k} }

// Forward pools each length-K window to its maximum; in training mode it
// also records where each maximum came from, for Backward.
func (p *MaxPool1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(shapeError("MaxPool1D", "[N, C, L]", x.Shape()))
	}
	n, c, l := x.Dim(0), x.Dim(1), x.Dim(2)
	ol := l / p.K
	p.inShape = x.Shape()
	p.out = tensor.Ensure(p.out, n, c, ol)
	out := p.out
	p.argmax = p.argmax[:0]
	if train {
		p.argmax = ensureLen(p.argmax, out.Size())
	}
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * l
			for o := 0; o < ol; o++ {
				best, bi := math.Inf(-1), -1
				for k := 0; k < p.K; k++ {
					if v := x.Data[base+o*p.K+k]; v > best {
						best, bi = v, base+o*p.K+k
					}
				}
				out.Data[oi] = best
				if train {
					p.argmax[oi] = bi
				}
				oi++
			}
		}
	}
	return out
}

// Backward routes each output gradient to the argmax input position.
func (p *MaxPool1D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if len(p.argmax) != dy.Size() {
		panic(noTrainForward("MaxPool1D"))
	}
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	dx := p.dx
	dx.Zero()
	for oi, ii := range p.argmax {
		dx.Data[ii] += dy.Data[oi]
	}
	return dx
}

// Params returns nil: pooling has no trainable state.
func (p *MaxPool1D) Params() []*Param { return nil }
