package mobility

import (
	"fmt"
	"math"

	"middle/internal/tensor"
)

// RandomWaypoint is a planar mobility model in the style of the traces
// the ONE simulator generates: devices live in the unit square, pick a
// uniform random waypoint and a random speed, walk toward it in straight
// lines, pause briefly, and repeat. Edges are base stations on a regular
// grid; each device connects to the nearest station every time step
// (the paper's nearest-edge association rule, Eq. 3).
type RandomWaypoint struct {
	gridW, gridH int
	stations     [][2]float64
	speedMin     float64 // distance per time step
	speedMax     float64
	pauseMax     int // max pause (time steps) at a waypoint
	seed         int64

	rng   *tensor.RNG
	pos   [][2]float64
	dst   [][2]float64
	speed []float64
	pause []int
	out   [2][]int // Step fills out[1], the older of its last two results, and swaps
}

// NewRandomWaypoint builds a random-waypoint model with gridW×gridH edge
// base stations. Speeds are per-time-step displacements in a unit square;
// with a 2×5 grid and speeds around 0.05 the empirical cross-edge
// mobility lands near the paper's P = 0.1–0.5 range.
func NewRandomWaypoint(gridW, gridH, devices int, speedMin, speedMax float64, pauseMax int, seed int64) *RandomWaypoint {
	validate(gridW*gridH, devices)
	if speedMin < 0 || speedMax < speedMin {
		panic(fmt.Sprintf("mobility: bad speed range [%v, %v]", speedMin, speedMax))
	}
	stations := make([][2]float64, 0, gridW*gridH)
	for gy := 0; gy < gridH; gy++ {
		for gx := 0; gx < gridW; gx++ {
			stations = append(stations, [2]float64{
				(float64(gx) + 0.5) / float64(gridW),
				(float64(gy) + 0.5) / float64(gridH),
			})
		}
	}
	w := &RandomWaypoint{
		gridW: gridW, gridH: gridH, stations: stations,
		speedMin: speedMin, speedMax: speedMax, pauseMax: pauseMax, seed: seed,
		pos:   make([][2]float64, devices),
		dst:   make([][2]float64, devices),
		speed: make([]float64, devices),
		pause: make([]int, devices),
		out:   [2][]int{make([]int, devices), make([]int, devices)},
	}
	w.Reset()
	return w
}

// NumEdges returns the number of base stations.
func (w *RandomWaypoint) NumEdges() int { return len(w.stations) }

// NumDevices returns the number of devices.
func (w *RandomWaypoint) NumDevices() int { return len(w.pos) }

// Reset re-scatters devices uniformly and restarts the random stream.
func (w *RandomWaypoint) Reset() {
	w.rng = tensor.Split(w.seed, 0x3AB0)
	for m := range w.pos {
		w.pos[m] = [2]float64{w.rng.Float64(), w.rng.Float64()}
		w.newLeg(m)
	}
}

func (w *RandomWaypoint) newLeg(m int) {
	w.dst[m] = [2]float64{w.rng.Float64(), w.rng.Float64()}
	w.speed[m] = w.speedMin + (w.speedMax-w.speedMin)*w.rng.Float64()
	if w.pauseMax > 0 {
		w.pause[m] = w.rng.Intn(w.pauseMax + 1)
	}
}

// Step moves every device along its current leg and returns nearest-edge
// membership.
func (w *RandomWaypoint) Step() []int {
	out := w.out[1]
	w.out[0], w.out[1] = out, w.out[0]
	for m := range w.pos {
		if w.pause[m] > 0 {
			w.pause[m]--
		} else {
			dx := w.dst[m][0] - w.pos[m][0]
			dy := w.dst[m][1] - w.pos[m][1]
			dist := math.Hypot(dx, dy)
			if dist <= w.speed[m] {
				w.pos[m] = w.dst[m]
				w.newLeg(m)
			} else {
				w.pos[m][0] += w.speed[m] * dx / dist
				w.pos[m][1] += w.speed[m] * dy / dist
			}
		}
		out[m] = w.nearestStation(w.pos[m])
	}
	return out
}

func (w *RandomWaypoint) nearestStation(p [2]float64) int {
	best, bi := math.Inf(1), 0
	for i, s := range w.stations {
		dx, dy := p[0]-s[0], p[1]-s[1]
		if d := dx*dx + dy*dy; d < best {
			best, bi = d, i
		}
	}
	return bi
}

// Position returns device m's current planar position (for diagnostics).
func (w *RandomWaypoint) Position(m int) (x, y float64) {
	return w.pos[m][0], w.pos[m][1]
}
