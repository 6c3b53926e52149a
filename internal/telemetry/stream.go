package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
)

// Client subscribes to a JSON-lines telemetry stream — the paper's §6
// feedback path, served by bus.TCPServer — and decodes its records.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
}

// Dial connects to a telemetry stream server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Client{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn))}, nil
}

// Next blocks for the next record.
func (c *Client) Next() (Record, error) {
	var rec Record
	if err := c.dec.Decode(&rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }
