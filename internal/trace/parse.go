package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// ParsePRV reads a Paraver .prv trace produced by WritePRV back into a
// Tracer, enabling post-mortem analysis of traces recorded by earlier
// runs — the Paraver workflow of the SMPSs toolset (§VII.C).  Task-kind
// labels are recovered from the optional .pcf via labels (kind → name);
// pass nil to fall back to "kind<N>" placeholders.
func ParsePRV(r io.Reader, labels map[int]string) (*Tracer, error) {
	t := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	// openKind tracks the running task kind per (context, worker) so end
	// records (value 0) can be attributed.
	type openKey struct{ ctx, worker int }
	openKind := map[openKey]int{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ":")
		if fields[0] != "2" {
			// State/communication records are not produced by WritePRV;
			// skip them for compatibility with external traces.
			continue
		}
		if len(fields) != 8 {
			return nil, fmt.Errorf("trace: line %d: event record has %d fields, want 8", lineNo, len(fields))
		}
		nums := make([]int64, 7)
		for i, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad field %q", lineNo, f)
			}
			nums[i] = v
		}
		ctx := int(nums[2]) - 1    // task carries ctx+1 in WritePRV
		worker := int(nums[3]) - 1 // thread is worker+1 in WritePRV
		when := time.Duration(nums[4])
		typ := nums[5]
		val := nums[6]

		ev := Event{When: when, Ctx: ctx, Worker: worker, Kind: -1}
		switch typ {
		case prvTaskKind:
			if val > 0 {
				ev.Type = EvStart
				ev.Kind = int(val - 1)
				openKind[openKey{ctx, worker}] = ev.Kind
			} else {
				ev.Type = EvEnd
				ev.Kind = openKind[openKey{ctx, worker}]
			}
			ev.Label = labelFor(labels, ev.Kind)
		case prvRename:
			ev.Type = EvRename
		case prvBarrier:
			if val > 0 {
				ev.Type = EvBarrier
			} else {
				ev.Type = EvBarrierDone
			}
		case prvCreate:
			ev.Type = EvCreate
			ev.Kind = int(val - 1)
			ev.Label = labelFor(labels, ev.Kind)
		case prvChain:
			ev.Type = EvChain
			ev.Kind = int(val - 1)
			ev.Label = labelFor(labels, ev.Kind)
		case prvFail:
			ev.Type = EvFail
			ev.Kind = int(val - 1)
			ev.Label = labelFor(labels, ev.Kind)
		case prvPoisoned:
			ev.Type = EvPoisoned
			ev.Kind = int(val - 1)
			ev.Label = labelFor(labels, ev.Kind)
		case prvCanceled:
			ev.Type = EvCanceled
			ev.Kind = int(val - 1)
			ev.Label = labelFor(labels, ev.Kind)
		default:
			continue // foreign event type
		}
		s := &t.bufs[worker&(stripes-1)]
		s.mu.Lock()
		s.evs = append(s.evs, ev)
		s.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func labelFor(labels map[int]string, kind int) string {
	if l, ok := labels[kind]; ok {
		return l
	}
	return fmt.Sprintf("kind%d", kind)
}

// ParsePCF extracts the task-kind value → label mapping from a .pcf
// written by WritePCF (it reads the VALUES section of the Task kind
// event type).
func ParsePCF(r io.Reader) (map[int]string, error) {
	labels := map[int]string{}
	sc := bufio.NewScanner(r)
	inTaskKind := false
	inValues := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "EVENT_TYPE"):
			inTaskKind = false
			inValues = false
		case strings.Contains(line, "Task kind"):
			inTaskKind = true
		case line == "VALUES":
			inValues = inTaskKind
		case inValues && line != "":
			var val int
			var name string
			if _, err := fmt.Sscanf(line, "%d %s", &val, &name); err == nil && val > 0 {
				labels[val-1] = name
			}
		case line == "":
			inValues = false
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return labels, nil
}
