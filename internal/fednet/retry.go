package fednet

import (
	"time"

	"middle/internal/tensor"
)

// The retry policy of the device and edge RPC paths: a failed attempt is
// retried maxRetries times, after back-offs growing from retryBase
// (DeviceMuxConfig.RetryBase overrides it for a client).
const (
	maxRetries = 3
	retryBase  = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
)

// retryBackoff returns the pause before retry attempt (1-based): capped
// exponential growth from base with deterministic jitter in [0.5, 1.0)×
// derived from (seed, id, attempt), so backoff schedules are
// reproducible for a given run seed yet decorrelated across peers.
func retryBackoff(base time.Duration, attempt int, seed, id int64) time.Duration {
	d := base
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	jitter := tensor.Split(seed, id*1_000_003+int64(attempt)*97).Float64()
	return time.Duration((0.5 + 0.5*jitter) * float64(d))
}
