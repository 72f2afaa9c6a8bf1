package server

import (
	"encoding/json"
	"fmt"
)

// appendSSE appends one event in text/event-stream framing to dst: its
// sequence number as the id, its type as the event name, and the Event's
// encoding/json form as the data line. On a marshalling error dst is
// returned unchanged with the error.
func appendSSE(dst []byte, ev Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return dst, err
	}
	return fmt.Appendf(dst, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data), nil
}
