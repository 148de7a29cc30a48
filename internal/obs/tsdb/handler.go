package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// jsonPoint renders one sample as [t, v] with non-finite values as
// null, so the payload is valid JSON for any browser.
type jsonPoint Point

func (p jsonPoint) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 32)
	b = append(b, '[')
	b = strconv.AppendInt(b, p.T, 10)
	b = append(b, ',')
	if math.IsInf(p.V, 0) || math.IsNaN(p.V) {
		b = append(b, "null"...)
	} else {
		b = strconv.AppendFloat(b, p.V, 'g', -1, 64)
	}
	return append(b, ']'), nil
}

type jsonSeries struct {
	Name   string      `json:"name"`
	Points []jsonPoint `json:"points"`
}

func toJSONSeries(in []SeriesData) []jsonSeries {
	out := make([]jsonSeries, len(in))
	for i, sd := range in {
		js := jsonSeries{Name: sd.Name, Points: make([]jsonPoint, len(sd.Points))}
		for j, p := range sd.Points {
			js.Points[j] = jsonPoint(p)
		}
		out[i] = js
	}
	return out
}

// JSONError writes a 4xx/5xx response as {"error": msg} with the JSON
// content type, so API clients never have to sniff plain-text errors.
func JSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// QueryHandler serves range queries as JSON:
//
//	GET /api/query?series=<pattern>[&series=...][&from=ms][&to=ms][&last=duration]
//
// series patterns may use '*' globs; 'last' is a relative shorthand
// ("5m") overriding 'from'. The response is
// {"now": <ms>, "series": [{"name":..., "points": [[t,v],...]}]}.
// Malformed parameters get a 400 with a JSON {"error": ...} body.
func (s *Store) QueryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		patterns := q["series"]
		if len(patterns) == 0 {
			JSONError(w, http.StatusBadRequest, "missing series parameter")
			return
		}
		// Comma-splitting lets one parameter carry several patterns.
		var flat []string
		for _, p := range patterns {
			for _, part := range strings.Split(p, ",") {
				if part = strings.TrimSpace(part); part != "" {
					flat = append(flat, part)
				}
			}
		}
		if len(flat) == 0 {
			JSONError(w, http.StatusBadRequest, "empty series parameter")
			return
		}
		now := time.Now().UnixMilli()
		var from, to int64
		var err error
		if v := q.Get("from"); v != "" {
			if from, err = strconv.ParseInt(v, 10, 64); err != nil {
				JSONError(w, http.StatusBadRequest, "bad from parameter (want unix milliseconds): "+v)
				return
			}
		}
		if v := q.Get("to"); v != "" {
			if to, err = strconv.ParseInt(v, 10, 64); err != nil {
				JSONError(w, http.StatusBadRequest, "bad to parameter (want unix milliseconds): "+v)
				return
			}
		}
		if last := q.Get("last"); last != "" {
			d, err := time.ParseDuration(last)
			if err != nil || d <= 0 {
				JSONError(w, http.StatusBadRequest, "bad last parameter (want positive duration): "+last)
				return
			}
			from = now - d.Milliseconds()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"now":    now,
			"series": toJSONSeries(s.Query(flat, from, to)),
		})
	})
}

// SeriesHandler serves the stored series inventory as JSON:
// {"count": N, "series": ["..."]} — TestGateMillionDevices asserts the
// count stays under budget at the million-device scale.
func (s *Store) SeriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		names := s.SeriesNames()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"count":  len(names),
			"series": names,
		})
	})
}

// dumpDoc is the dump document WriteDump writes.
type dumpDoc struct {
	TSDB       int          `json:"tsdb"`
	IntervalMS int64        `json:"interval_ms"`
	Series     []jsonSeries `json:"series"`
}

// WriteDump writes the whole store as one JSON document:
//
//	{"tsdb":1,"interval_ms":...,"series":[{"name":...,"points":[[t,v],...]}]}
//
// The leading "tsdb" key doubles as the sniff tag middleplot uses to
// recognize a dump file. Nil-safe (writes nothing).
func (s *Store) WriteDump(w io.Writer) error {
	if s == nil {
		return nil
	}
	all := s.Query([]string{"*"}, 0, 0)
	return json.NewEncoder(w).Encode(dumpDoc{TSDB: 1, IntervalMS: s.cfg.Interval.Milliseconds(), Series: toJSONSeries(all)})
}

// ReadDump decodes a document WriteDump wrote. A null value — a
// non-finite sample — reads back as NaN.
func ReadDump(r io.Reader) ([]SeriesData, error) {
	var doc struct {
		TSDB   int `json:"tsdb"`
		Series []struct {
			Name   string        `json:"name"`
			Points [][2]*float64 `json:"points"`
		} `json:"series"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("tsdb: reading dump: %w", err)
	}
	if doc.TSDB != 1 {
		return nil, fmt.Errorf("tsdb: not a version 1 dump (tsdb=%d)", doc.TSDB)
	}
	out := make([]SeriesData, len(doc.Series))
	for i, js := range doc.Series {
		out[i] = SeriesData{Name: js.Name, Points: make([]Point, len(js.Points))}
		for j, p := range js.Points {
			if p[0] == nil {
				return nil, fmt.Errorf("tsdb: series %s point %d has no time", js.Name, j)
			}
			out[i].Points[j] = Point{T: int64(*p[0]), V: math.NaN()}
			if p[1] != nil {
				out[i].Points[j].V = *p[1]
			}
		}
	}
	return out, nil
}

// DumpToFile scrapes once more and writes the dump to path. Nil-safe.
func (s *Store) DumpToFile(path string) error {
	if s == nil {
		return nil
	}
	s.ScrapeOnce()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
