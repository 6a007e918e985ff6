// cograd-client: a minimal Go client for a running cograd. It
// subscribes a query for one tenant, pushes a CSV stream as JSON
// batches, then drains the results — printing each result's "text"
// field, which is byte-identical to what an embedded cograql run would
// print for the same stream.
//
// Start a server, then run the client:
//
//	go run ./cmd/cograd -addr :8080 &
//	go run ./examples/cograd-client -addr http://localhost:8080 \
//	    -tenant demo -input stream.csv \
//	    -query 'RETURN COUNT(*) PATTERN SEQ(A+, B) WITHIN 10 SLIDE 10'
//
// With no -input, the client pushes the paper's Figure 2 stream.
//
// -mode splits the flow into phases for scripting (the CI server smoke
// drives a SIGTERM restart and a SIGKILL recovery this way):
//
//	-mode subscribe          print the new query id on stdout
//	-mode push -from N -to M push events[N:M) of the input
//	-mode drain -id K        print pending result text lines
//	-mode close              end the tenant's stream (flush open windows)
//	-mode run                all of the above in one go (the default)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"

	cogra "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "cograd base URL")
	tenant := flag.String("tenant", "demo", "tenant name")
	query := flag.String("query", "RETURN COUNT(*) PATTERN SEQ(A+, B) WITHIN 10 SLIDE 10", "query to subscribe")
	input := flag.String("input", "", "CSV stream to push (empty: the paper's Figure 2 stream)")
	batch := flag.Int("batch", 512, "events per ingest request")
	mode := flag.String("mode", "run", "run | subscribe | push | drain | close")
	from := flag.Int("from", 0, "push: first event index (inclusive)")
	to := flag.Int("to", 0, "push: last event index (exclusive; 0 means end)")
	qid := flag.Int("id", 0, "drain: query id to drain")
	flag.Parse()

	switch *mode {
	case "subscribe":
		id, err := subscribe(*addr, *tenant, *query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(id)
	case "push":
		events, err := loadEvents(*input)
		if err != nil {
			log.Fatal(err)
		}
		hi := *to
		if hi == 0 || hi > len(events) {
			hi = len(events)
		}
		for i := *from; i < hi; i += *batch {
			if _, err := push(*addr, *tenant, events[i:min(i+*batch, hi)]); err != nil {
				log.Fatal(err)
			}
		}
	case "drain":
		results, err := drain(*addr, *tenant, *qid)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			fmt.Println(r.Text)
		}
	case "close":
		if err := post(*addr+"/v1/"+*tenant+"/close", nil, nil); err != nil {
			log.Fatal(err)
		}
	case "run":
		run(*addr, *tenant, *query, *input, *batch)
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
}

func run(addr, tenant, query, input string, batch int) {
	events, err := loadEvents(input)
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe first: results only cover events pushed after the
	// subscription exists, exactly like an embedded Session.
	id, err := subscribe(addr, tenant, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribed query %d for tenant %q\n", id, tenant)

	for i := 0; i < len(events); i += batch {
		n, err := push(addr, tenant, events[i:min(i+batch, len(events))])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pushed %d events\n", n)
	}

	// Close the tenant's stream so open windows flush, then drain.
	if err := post(addr+"/v1/"+tenant+"/close", nil, nil); err != nil {
		log.Fatal(err)
	}
	results, err := drain(addr, tenant, id)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Println(r.Text)
	}
}

func loadEvents(path string) ([]*cogra.Event, error) {
	if path == "" {
		return []*cogra.Event{
			cogra.NewEvent("A", 1), cogra.NewEvent("B", 2),
			cogra.NewEvent("A", 3), cogra.NewEvent("A", 4),
			cogra.NewEvent("C", 5), cogra.NewEvent("B", 6),
			cogra.NewEvent("A", 7), cogra.NewEvent("B", 8),
		}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cogra.ReadCSV(f)
}

// post sends a JSON body and decodes the JSON reply, turning typed
// error bodies back into Go errors (errors.Is-compatible sentinels).
func post(url string, body, reply any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	return decodeReply(resp, reply)
}

func decodeReply(resp *http.Response, reply any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var werr server.WireError
		if json.Unmarshal(raw, &werr) == nil && werr.Code != "" {
			return server.DecodeWireError(&werr)
		}
		return fmt.Errorf("http %d: %s", resp.StatusCode, raw)
	}
	if reply == nil {
		return nil
	}
	return json.Unmarshal(raw, reply)
}

func subscribe(addr, tenant, query string) (int, error) {
	var reply struct {
		ID int `json:"id"`
	}
	err := post(addr+"/v1/"+tenant+"/queries", map[string]string{"query": query}, &reply)
	return reply.ID, err
}

func push(addr, tenant string, events []*cogra.Event) (int, error) {
	wire := make([]server.WireEvent, len(events))
	for i, e := range events {
		wire[i] = server.ToWireEvent(e)
	}
	var reply struct {
		Accepted int `json:"accepted"`
	}
	err := post(addr+"/v1/"+tenant+"/events", map[string]any{"events": wire}, &reply)
	return reply.Accepted, err
}

func drain(addr, tenant string, id int) ([]server.WireResult, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/%s/results?id=%d", addr, tenant, id))
	if err != nil {
		return nil, err
	}
	var reply struct {
		Results []server.WireResult `json:"results"`
		Done    bool                `json:"done"`
	}
	if err := decodeReply(resp, &reply); err != nil {
		return nil, err
	}
	return reply.Results, nil
}
