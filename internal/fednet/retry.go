package fednet

import (
	"time"

	"middle/internal/tensor"
)

// Retry policy defaults shared by device and edge RPC paths.
const (
	defaultMaxRetries = 3
	defaultRetryBase  = 50 * time.Millisecond
	maxBackoff        = 2 * time.Second
)

// retryPolicy applies the defaults to a configured retry budget: zero
// retries means the default count, a negative count means none.
func retryPolicy(maxRetries int, base time.Duration) (int, time.Duration) {
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	}
	if base <= 0 {
		base = defaultRetryBase
	}
	return max(maxRetries, 0), base
}

// retryBackoff returns the pause before retry attempt (1-based): capped
// exponential growth from base with deterministic jitter in [0.5, 1.0)×
// derived from (seed, id, attempt), so backoff schedules are
// reproducible for a given run seed yet decorrelated across peers.
func retryBackoff(base time.Duration, attempt int, seed, id int64) time.Duration {
	if base <= 0 {
		base = defaultRetryBase
	}
	if attempt < 1 {
		attempt = 1
	}
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
