package nn

import (
	"middle/internal/tensor"
)

// Conv2D is a 2-D convolution over inputs of shape [N, C, H, W], lowered
// to matrix products with im2col one sample at a time. Weights are stored
// as a matrix [OutC, C*KH*KW]; Forward lowers sample i and multiplies
// W·cols_i straight into out[i] ([OutC, OH*OW] row-major is sample i's
// slice of [N, OutC, OH, OW]), and Backward computes dX the same way.
// What stays batched is what dW reads: in training mode sample i is
// lowered into columns [i*OH*OW, (i+1)*OH*OW) of one [C*KH*KW, N*OH*OW]
// matrix and dOut is gathered into [OutC, N*OH*OW], because dW is one
// MatMulTransB over the batch whose panels along that axis are part of
// its bits.
//
// The layer owns its scratch buffers (cols, out, dy, dcols, dx):
// tensors returned by Forward/Backward are valid only until the layer's
// next Forward/Backward call.
type Conv2D struct {
	InC, OutC            int
	KH, KW               int
	Stride, Pad          int
	W, B                 *Param
	inH, inW, outH, outW int

	cols  []float64      // im2col columns: [CKK, N*OHW] in training mode, one sample's [CKK, OHW] otherwise
	out   *tensor.Tensor // forward output [N, OutC, OH, OW]
	dy    *tensor.Tensor // gathered upstream gradient [OutC, N*OHW]
	dcols *tensor.Tensor // one sample's column-space input gradient [CKK, OHW]
	dx    *tensor.Tensor // input gradient [N, C, H, W]
}

// NewConv2D constructs a convolution layer with He-normal weights for
// inputs of spatial size inH×inW (fixed per network; the paper's tasks
// each have a fixed input geometry).
func NewConv2D(inC, outC, kh, kw, stride, pad, inH, inW int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		inH: inH, inW: inW,
		outH: tensor.ConvOut(inH, kh, stride, pad),
		outW: tensor.ConvOut(inW, kw, stride, pad),
		W:    newParam("conv2d.W", outC, inC*kh*kw),
		B:    newParam("conv2d.B", outC),
	}
	rng.HeNormal(c.W.Value, inC*kh*kw)
	return c
}

// Forward convolves a batch [N, C, H, W] producing [N, OutC, OH, OW].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC || x.Dim(2) != c.inH || x.Dim(3) != c.inW {
		panic(shapeError("Conv2D", "[N, C, H, W] matching construction", x.Shape()))
	}
	n := x.Dim(0)
	ckk := c.InC * c.KH * c.KW
	ohw := c.outH * c.outW
	inSz := c.InC * c.inH * c.inW
	outSz := c.OutC * ohw
	// Training keeps every sample's columns for dW; evaluation lowers
	// each sample into the same tile.
	rowStride, step := ohw, 0
	if train {
		rowStride, step = n*ohw, ohw
	}
	cols := ensureLen(c.cols, ckk*rowStride)
	c.cols = cols
	out := tensor.Ensure(c.out, n, c.OutC, c.outH, c.outW)
	c.out = out
	bd := c.B.Value.Data
	for i := 0; i < n; i++ {
		blk := cols[i*step:]
		tensor.Im2ColStrided(x.Data[i*inSz:(i+1)*inSz], c.InC, c.inH, c.inW,
			c.KH, c.KW, c.Stride, c.Pad, blk, rowStride)
		oi := out.Data[i*outSz : (i+1)*outSz]
		tensor.MatMulBlockInto(oi, c.W.Value, blk, rowStride)
		for oc, b := range bd {
			row := oi[oc*ohw : (oc+1)*ohw]
			for j := range row {
				row[j] += b
			}
		}
	}
	return out
}

// Backward consumes dOut [N, OutC, OH, OW], sets dW and dB, and returns
// dX [N, C, H, W].
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dout)
	n := dout.Dim(0)
	ckk := c.InC * c.KH * c.KW
	ohw := c.outH * c.outW
	inSz := c.InC * c.inH * c.inW
	outSz := c.OutC * ohw
	// dcols_i = Wᵀ · dOut_i, read from dOut's own layout, then scattered
	// back to image space.
	c.dcols = tensor.Ensure(c.dcols, ckk, ohw)
	dx := tensor.Ensure(c.dx, n, c.InC, c.inH, c.inW)
	c.dx = dx
	dyi := tensor.FromSlice(dout.Data[:outSz], c.OutC, ohw)
	for i := 0; i < n; i++ {
		dyi.Data = dout.Data[i*outSz : (i+1)*outSz]
		tensor.MatMulTransAInto(c.dcols, c.W.Value, dyi)
		dxi := dx.Data[i*inSz : (i+1)*inSz]
		clear(dxi)
		tensor.Col2ImStrided(c.dcols.Data, c.InC, c.inH, c.inW,
			c.KH, c.KW, c.Stride, c.Pad, dxi, ohw)
	}
	return dx
}

// backwardParams is the half of Backward that sets dW and dB; a
// network's first layer needs nothing else (Network.Backward).
func (c *Conv2D) backwardParams(dout *tensor.Tensor) {
	n := dout.Dim(0)
	ckk := c.InC * c.KH * c.KW
	ohw := c.outH * c.outW
	rowStride := n * ohw
	// Gather dOut into the batched column layout [OutC, N*OHW].
	c.dy = tensor.Ensure(c.dy, c.OutC, rowStride)
	dyd := c.dy.Data
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			src := dout.Data[(i*c.OutC+oc)*ohw : (i*c.OutC+oc+1)*ohw]
			copy(dyd[oc*rowStride+i*ohw:oc*rowStride+(i+1)*ohw], src)
		}
	}
	colsT := tensor.FromSlice(c.cols, ckk, rowStride)
	// dW = dy · colsᵀ — one product for the whole batch.
	tensor.MatMulTransBInto(c.W.Grad, c.dy, colsT)
	// dB = row sums of dy.
	for oc := 0; oc < c.OutC; oc++ {
		s := 0.0
		for _, v := range dyd[oc*rowStride : (oc+1)*rowStride] {
			s += v
		}
		c.B.Grad.Data[oc] = s
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
