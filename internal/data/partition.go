package data

import (
	"fmt"

	"middle/internal/tensor"
)

// Partition assigns every device a list of sample indices into a parent
// dataset. Partitions are the unit the federated engine trains on: each
// simulated device sees only its own indices.
type Partition struct {
	Dataset *Dataset
	// Indices[m] lists the samples owned by device m.
	Indices [][]int
}

// NumDevices returns the number of devices in the partition.
func (p *Partition) NumDevices() int { return len(p.Indices) }

// Sizes returns the number of samples per device (d_m in the paper).
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.Indices))
	for i, idx := range p.Indices {
		out[i] = len(idx)
	}
	return out
}

// classPools builds shuffled per-class index pools with a cursor, drawing
// without replacement and rewinding when a class is exhausted.
type classPools struct {
	pools [][]int
	cur   []int
}

func newClassPools(d *Dataset, rng *tensor.RNG) *classPools {
	pools := d.ByClass()
	for _, pool := range pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	return &classPools{pools: pools, cur: make([]int, len(pools))}
}

// draw returns the next sample index of class c, recycling the pool when
// it is exhausted (devices may then share samples, which is acceptable in
// simulation and keeps per-device sizes exact).
func (cp *classPools) draw(c int) int {
	pool := cp.pools[c]
	if len(pool) == 0 {
		panic(fmt.Sprintf("data: class %d has no samples to draw", c))
	}
	idx := pool[cp.cur[c]%len(pool)]
	cp.cur[c]++
	return idx
}

// PartitionMajorClass implements the paper's §6.1.2 Non-IID setting:
// every device has a major class holding majorFrac (> 0.8 in the paper)
// of its perDevice samples, with the remainder drawn uniformly from the
// other classes. Device m's major class is m mod Classes, so all classes
// are represented across the fleet.
func PartitionMajorClass(d *Dataset, numDevices, perDevice int, majorFrac float64, seed int64) *Partition {
	if majorFrac < 0 || majorFrac > 1 {
		panic(fmt.Sprintf("data: majorFrac %v outside [0,1]", majorFrac))
	}
	rng := tensor.Split(seed, 0x9A47)
	cp := newClassPools(d, rng)
	indices := make([][]int, numDevices)
	for m := 0; m < numDevices; m++ {
		major := m % d.Classes
		nMajor := int(majorFrac * float64(perDevice))
		own := make([]int, 0, perDevice)
		for i := 0; i < nMajor; i++ {
			own = append(own, cp.draw(major))
		}
		for i := nMajor; i < perDevice; i++ {
			c := rng.Intn(d.Classes - 1)
			if c >= major {
				c++
			}
			own = append(own, cp.draw(c))
		}
		indices[m] = own
	}
	return &Partition{Dataset: d, Indices: indices}
}

// PartitionMajorClassClustered is PartitionMajorClass with the major
// classes *clustered by initial edge*: device m (whose initial edge under
// round-robin assignment is m mod edges) majors on a class from its
// edge's contiguous class block. This models geographically correlated
// data — devices near the same base station see similar classes — which
// is what makes Non-IID-across-edges persist under locality-preserving
// mobility. Blocks overlap just enough that every class has at least one
// majoring device.
func PartitionMajorClassClustered(d *Dataset, numDevices, perDevice int, majorFrac float64, edges int, seed int64) *Partition {
	if edges < 1 {
		panic(fmt.Sprintf("data: clustered partition needs ≥1 edge, got %d", edges))
	}
	if majorFrac < 0 || majorFrac > 1 {
		panic(fmt.Sprintf("data: majorFrac %v outside [0,1]", majorFrac))
	}
	c := d.Classes
	spread := (c + edges - 1) / edges // ceil(C/E): block width per edge
	rng := tensor.Split(seed, 0x9A48)
	cp := newClassPools(d, rng)
	indices := make([][]int, numDevices)
	for m := 0; m < numDevices; m++ {
		e := m % edges
		r := m / edges
		major := (e*c/edges + r%spread) % c
		nMajor := int(majorFrac * float64(perDevice))
		own := make([]int, 0, perDevice)
		for i := 0; i < nMajor; i++ {
			own = append(own, cp.draw(major))
		}
		for i := nMajor; i < perDevice; i++ {
			cc := rng.Intn(c - 1)
			if cc >= major {
				cc++
			}
			own = append(own, cp.draw(cc))
		}
		indices[m] = own
	}
	return &Partition{Dataset: d, Indices: indices}
}

// PartitionShared builds a population-scale partition whose per-device
// shards are windows into ONE shared shuffled permutation of the parent
// dataset. A materialized partition costs O(devices × perDevice) ints —
// at a million devices that is gigabytes of index storage before a
// single model is allocated — while the shared form costs
// O(datasetLen + perDevice) ints plus one slice header per device,
// because every window aliases the same backing array. Windows stride
// through the permutation and wrap, so devices share samples once the
// corpus is exhausted: acceptable in simulation, and the price of
// bounding memory by the corpus instead of the population. Unlike
// PartitionMajorClass the shards are IID; the scale path trades the
// Non-IID structure for a memory footprint independent of the fleet.
func PartitionShared(d *Dataset, numDevices, perDevice int, seed int64) *Partition {
	if numDevices < 1 || perDevice < 1 {
		panic(fmt.Sprintf("data: shared partition needs ≥1 device and ≥1 sample, got %d/%d", numDevices, perDevice))
	}
	n := d.Len()
	if n < 1 {
		panic("data: shared partition over an empty dataset")
	}
	rng := tensor.Split(seed, 0x5AAD)
	perm := rng.Perm(n)
	// Extend by repetition so every window starting below n fits without
	// a per-device copy; windows that cross the end wrap into the repeat.
	ext := perm
	for len(ext) < n+perDevice {
		ext = append(ext, perm...)
	}
	indices := make([][]int, numDevices)
	for m := range indices {
		start := (m * perDevice) % n
		indices[m] = ext[start : start+perDevice : start+perDevice]
	}
	return &Partition{Dataset: d, Indices: indices}
}

// PartitionSingleClass assigns each device samples of exactly one class
// (device m gets class m mod Classes), the setting of the paper's
// Figure 2 motivation experiment.
func PartitionSingleClass(d *Dataset, numDevices, perDevice int, seed int64) *Partition {
	return PartitionMajorClass(d, numDevices, perDevice, 1.0, seed)
}

// PartitionEdgeSkew implements the paper's Figure 1 motivation setting:
// devices belong to edges, and each *edge* has a label distribution that
// puts majorFrac of mass on its majorClasses and the rest on the others.
// edgeOf[m] names the edge of device m; majorClasses[e] lists edge e's
// major classes.
func PartitionEdgeSkew(d *Dataset, edgeOf []int, majorClasses [][]int, perDevice int, majorFrac float64, seed int64) *Partition {
	rng := tensor.Split(seed, 0xED6E)
	cp := newClassPools(d, rng)
	numEdges := len(majorClasses)
	minor := make([][]int, numEdges)
	for e, major := range majorClasses {
		isMajor := make(map[int]bool, len(major))
		for _, c := range major {
			if c < 0 || c >= d.Classes {
				panic(fmt.Sprintf("data: edge %d major class %d out of range", e, c))
			}
			isMajor[c] = true
		}
		for c := 0; c < d.Classes; c++ {
			if !isMajor[c] {
				minor[e] = append(minor[e], c)
			}
		}
	}
	indices := make([][]int, len(edgeOf))
	for m, e := range edgeOf {
		if e < 0 || e >= numEdges {
			panic(fmt.Sprintf("data: device %d assigned to unknown edge %d", m, e))
		}
		own := make([]int, 0, perDevice)
		for i := 0; i < perDevice; i++ {
			var c int
			if rng.Float64() < majorFrac || len(minor[e]) == 0 {
				mc := majorClasses[e]
				c = mc[rng.Intn(len(mc))]
			} else {
				c = minor[e][rng.Intn(len(minor[e]))]
			}
			own = append(own, cp.draw(c))
		}
		indices[m] = own
	}
	return &Partition{Dataset: d, Indices: indices}
}

// PartitionIID gives each device perDevice samples drawn uniformly.
func PartitionIID(d *Dataset, numDevices, perDevice int, seed int64) *Partition {
	rng := tensor.Split(seed, 0x11D0)
	indices := make([][]int, numDevices)
	for m := range indices {
		own := make([]int, perDevice)
		for i := range own {
			own[i] = rng.Intn(d.Len())
		}
		indices[m] = own
	}
	return &Partition{Dataset: d, Indices: indices}
}
