package data

import (
	"fmt"
	"math"

	"middle/internal/tensor"
)

// ImageProfile parameterises the synthetic image generator. Each class
// owns a smooth prototype field (a mixture of low-frequency plane waves
// with class-keyed frequencies and phases); a sample is its class
// prototype under a small random translation plus white noise, so a CNN
// must learn translation-tolerant class features — the same inductive
// structure the paper's image tasks exercise.
type ImageProfile struct {
	Name    string
	C, H, W int
	Classes int
	Waves   int     // plane waves mixed into each prototype
	Shift   int     // max |translation| in pixels per axis
	Noise   float64 // white-noise std added per pixel
}

// MNISTProfile mirrors MNIST geometry: 10 classes of 1×28×28.
func MNISTProfile() ImageProfile {
	return ImageProfile{Name: "mnist", C: 1, H: 28, W: 28, Classes: 10, Waves: 4, Shift: 2, Noise: 0.25}
}

// EMNISTProfile mirrors EMNIST-Letters geometry: 26 classes of 1×28×28.
// More classes with the same budget of distinguishing structure makes the
// task harder, as in the paper.
func EMNISTProfile() ImageProfile {
	return ImageProfile{Name: "emnist", C: 1, H: 28, W: 28, Classes: 26, Waves: 4, Shift: 2, Noise: 0.3}
}

// CIFARProfile mirrors CIFAR10 geometry: 10 classes of 3×32×32 with more
// noise and larger jitter, making it the hardest image task.
func CIFARProfile() ImageProfile {
	return ImageProfile{Name: "cifar10", C: 3, H: 32, W: 32, Classes: 10, Waves: 3, Shift: 4, Noise: 0.55}
}

// FastImageProfile is a reduced-geometry task (1×8×8) for tests and fast
// benchmark runs.
func FastImageProfile(classes int) ImageProfile {
	return ImageProfile{Name: "fast-image", C: 1, H: 8, W: 8, Classes: classes, Waves: 3, Shift: 1, Noise: 0.8}
}

// GenerateImages synthesises n labelled images for the profile. Labels
// cycle round-robin so classes are balanced. The same (profile, seed)
// always produces the same dataset.
func GenerateImages(p ImageProfile, n int, seed int64) *Dataset {
	return GenerateImagesSplit(p, n, seed, seed)
}

// GenerateImagesSplit separates the prototype seed (the class-conditional
// distribution) from the sampling seed. Train and test sets of one task
// share protoSeed and use distinct sampleSeeds, so they are disjoint
// draws from the same distribution.
func GenerateImagesSplit(p ImageProfile, n int, protoSeed, sampleSeed int64) *Dataset {
	protos := imagePrototypes(p, protoSeed)
	rng := tensor.Split(sampleSeed, 0x1A0E)
	ss := p.C * p.H * p.W
	data := make([]float64, n*ss)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % p.Classes
		labels[i] = cls
		dst := data[i*ss : (i+1)*ss]
		dy := rng.Intn(2*p.Shift+1) - p.Shift
		dx := rng.Intn(2*p.Shift+1) - p.Shift
		proto := protos[cls]
		for c := 0; c < p.C; c++ {
			for y := 0; y < p.H; y++ {
				sy := clamp(y+dy, 0, p.H-1)
				for x := 0; x < p.W; x++ {
					sx := clamp(x+dx, 0, p.W-1)
					v := proto[(c*p.H+sy)*p.W+sx] + p.Noise*rng.NormFloat64()
					dst[(c*p.H+y)*p.W+x] = v
				}
			}
		}
	}
	return NewDataset(p.Name, []int{p.C, p.H, p.W}, p.Classes, data, labels)
}

// imagePrototypes builds one deterministic prototype field per class.
func imagePrototypes(p ImageProfile, seed int64) [][]float64 {
	protos := make([][]float64, p.Classes)
	for cls := 0; cls < p.Classes; cls++ {
		rng := tensor.Split(seed, int64(1000+cls))
		proto := make([]float64, p.C*p.H*p.W)
		for c := 0; c < p.C; c++ {
			for w := 0; w < p.Waves; w++ {
				fx := (rng.Float64()*2 - 1) * 3 / float64(p.W)
				fy := (rng.Float64()*2 - 1) * 3 / float64(p.H)
				phase := rng.Float64() * 2 * math.Pi
				amp := 0.5 + rng.Float64()
				for y := 0; y < p.H; y++ {
					for x := 0; x < p.W; x++ {
						proto[(c*p.H+y)*p.W+x] += amp * math.Cos(2*math.Pi*(fx*float64(x)+fy*float64(y))+phase)
					}
				}
			}
		}
		protos[cls] = proto
	}
	return protos
}

// SequenceProfile parameterises the synthetic 1-D signal generator that
// stands in for SpeechCommands: long, mostly-zero vectors where each
// class places Gaussian bursts ("formants") at class-keyed positions.
type SequenceProfile struct {
	Name    string
	L       int
	Classes int
	Bursts  int     // bursts per class prototype
	Width   float64 // burst width (std in samples)
	Jitter  int     // max temporal shift of each burst
	Noise   float64 // white-noise std
}

// SpeechProfile mirrors the paper's speech task: 10 classes of long
// sparse vectors (the paper notes "long sparse vectors" explicitly).
func SpeechProfile() SequenceProfile {
	return SequenceProfile{Name: "speech", L: 4000, Classes: 10, Bursts: 6, Width: 18, Jitter: 60, Noise: 0.08}
}

// FastSequenceProfile is a reduced-length sequence task for tests.
func FastSequenceProfile(classes int) SequenceProfile {
	return SequenceProfile{Name: "fast-seq", L: 1600, Classes: classes, Bursts: 4, Width: 10, Jitter: 35, Noise: 0.2}
}

// GenerateSequences synthesises n labelled sequences for the profile.
func GenerateSequences(p SequenceProfile, n int, seed int64) *Dataset {
	return GenerateSequencesSplit(p, n, seed, seed)
}

// GenerateSequencesSplit separates the prototype seed from the sampling
// seed, as GenerateImagesSplit does for images.
func GenerateSequencesSplit(p SequenceProfile, n int, protoSeed, sampleSeed int64) *Dataset {
	type burst struct {
		pos  int
		amp  float64
		sign float64
	}
	protos := make([][]burst, p.Classes)
	for cls := 0; cls < p.Classes; cls++ {
		rng := tensor.Split(protoSeed, int64(2000+cls))
		bs := make([]burst, p.Bursts)
		for b := range bs {
			sign := 1.0
			if rng.Float64() < 0.5 {
				sign = -1
			}
			bs[b] = burst{
				pos:  int(rng.Float64() * float64(p.L)),
				amp:  0.8 + rng.Float64(),
				sign: sign,
			}
		}
		protos[cls] = bs
	}
	rng := tensor.Split(sampleSeed, 0x5EC5)
	data := make([]float64, n*p.L)
	labels := make([]int, n)
	halfSpan := int(3 * p.Width)
	for i := 0; i < n; i++ {
		cls := i % p.Classes
		labels[i] = cls
		dst := data[i*p.L : (i+1)*p.L]
		for _, b := range protos[cls] {
			center := b.pos + rng.Intn(2*p.Jitter+1) - p.Jitter
			lo, hi := clamp(center-halfSpan, 0, p.L-1), clamp(center+halfSpan, 0, p.L-1)
			for t := lo; t <= hi; t++ {
				d := float64(t-center) / p.Width
				dst[t] += b.sign * b.amp * math.Exp(-0.5*d*d)
			}
		}
		if p.Noise > 0 {
			for t := range dst {
				dst[t] += p.Noise * rng.NormFloat64()
			}
		}
	}
	return NewDataset(p.Name, []int{1, p.L}, p.Classes, data, labels)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// TaskName identifies one of the four paper evaluation tasks.
type TaskName string

// The four learning tasks of the paper's evaluation (§6.1.1).
const (
	TaskMNIST  TaskName = "mnist"
	TaskEMNIST TaskName = "emnist"
	TaskCIFAR  TaskName = "cifar10"
	TaskSpeech TaskName = "speech"
)

// AllTasks lists the evaluation tasks in paper order.
func AllTasks() []TaskName {
	return []TaskName{TaskMNIST, TaskEMNIST, TaskCIFAR, TaskSpeech}
}

// GenerateTask produces train and test datasets for a named paper task at
// the given sizes. Train and test draw from the same class prototypes
// (same seed) but with independent sampling noise.
func GenerateTask(task TaskName, trainN, testN int, seed int64) (train, test *Dataset) {
	switch task {
	case TaskMNIST:
		p := MNISTProfile()
		return GenerateImagesSplit(p, trainN, seed, seed), GenerateImagesSplit(p, testN, seed, seed+1_000_003)
	case TaskEMNIST:
		p := EMNISTProfile()
		return GenerateImagesSplit(p, trainN, seed, seed), GenerateImagesSplit(p, testN, seed, seed+1_000_003)
	case TaskCIFAR:
		p := CIFARProfile()
		return GenerateImagesSplit(p, trainN, seed, seed), GenerateImagesSplit(p, testN, seed, seed+1_000_003)
	case TaskSpeech:
		p := SpeechProfile()
		return GenerateSequencesSplit(p, trainN, seed, seed), GenerateSequencesSplit(p, testN, seed, seed+1_000_003)
	default:
		panic(fmt.Sprintf("data: unknown task %q", task))
	}
}
