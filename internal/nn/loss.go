package nn

import (
	"fmt"
	"math"

	"middle/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// [N, C] against integer labels, and the gradient of that loss with
// respect to the logits: (softmax − onehot)/N. Computing loss and
// gradient together keeps the softmax numerically stable and avoids a
// second pass.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	loss, grad, _ = softmaxCE(nil, nil, logits, labels, false)
	return loss, grad
}

// SoftmaxCrossEntropyPerSample additionally returns each sample's loss,
// which device-selection utilities (Oort's statistical utility) need.
func SoftmaxCrossEntropyPerSample(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor, perSample []float64) {
	return softmaxCE(nil, nil, logits, labels, true)
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropyPerSample writing the
// gradient into grad and the per-sample losses into perSample, which are
// reused like tensor.Ensure's and append's first arguments: pass what the
// previous call returned (nil at first) and keep what this one returns. A
// training loop that does so allocates nothing per step once they have
// grown to its batch.
func SoftmaxCrossEntropyInto(grad *tensor.Tensor, perSample []float64, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, []float64) {
	return softmaxCE(grad, perSample, logits, labels, true)
}

func softmaxCE(grad *tensor.Tensor, perSample []float64, logits *tensor.Tensor, labels []int, wantPerSample bool) (float64, *tensor.Tensor, []float64) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy requires [N, C] logits, got %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy has %d logit rows but %d labels", n, len(labels)))
	}
	// grad = softmax − onehot, scaled by 1/N, computed over the softmax.
	grad = tensor.SoftmaxRowsInto(tensor.Ensure(grad, n, c), logits)
	invN := 1.0 / float64(n)
	if wantPerSample {
		perSample = ensureLen(perSample, n)
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0, %d)", y, c))
		}
		p := grad.Data[i*c+y]
		// Clamp to avoid -Inf on numerically zero probabilities.
		if p < 1e-12 {
			p = 1e-12
		}
		l := -math.Log(p)
		loss += l
		if wantPerSample {
			perSample[i] = l
		}
		grad.Data[i*c+y] -= 1
	}
	loss *= invN
	grad.ScaleInPlace(invN)
	return loss, grad, perSample
}

// Accuracy returns the fraction of rows of logits [N, C] whose argmax
// equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := logits.ArgMaxRows()
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy has %d predictions but %d labels", len(pred), len(labels)))
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
