package server

import (
	"encoding/json"
	"fmt"
	"io"
)

// writeSSE writes one event in text/event-stream framing: its sequence
// number as the id, its type as the event name, and the Event's
// encoding/json form as the data line. A marshalling error is returned
// before anything is written, and the caller ends the stream.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
