package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// The benchmark speaks RESP2 with its own encoder and reply reader, so a
// codec bug in the daemon cannot be hidden by sharing its code.

// reply is one decoded RESP reply. Readers reuse a reply's buffers
// across calls, so its bytes are valid until the next read into it.
type reply struct {
	typ   byte // '+', '-', ':', '$', '*'
	str   []byte
	null  bool
	n     int64
	elems []reply
}

func (r *reply) isOK() bool { return r.typ == '+' && string(r.str) == "OK" }

func (r *reply) String() string {
	switch {
	case r.null:
		return "(nil)"
	case r.typ == '*':
		return fmt.Sprintf("array[%d]", len(r.elems))
	case r.typ == ':':
		return strconv.FormatInt(r.n, 10)
	}
	return string(r.typ) + string(r.str)
}

// client is one RESP connection.
type client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dial(addr string) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

func (c *client) close() { c.nc.Close() }

// send buffers one command.
func (c *client) send(args ...string) {
	c.bw.WriteByte('*')
	c.bw.WriteString(strconv.Itoa(len(args)))
	c.bw.WriteString("\r\n")
	for _, a := range args {
		c.bw.WriteByte('$')
		c.bw.WriteString(strconv.Itoa(len(a)))
		c.bw.WriteString("\r\n")
		c.bw.WriteString(a)
		c.bw.WriteString("\r\n")
	}
}

func (c *client) flush() error {
	c.nc.SetDeadline(time.Now().Add(30 * time.Second))
	return c.bw.Flush()
}

// do sends one command and reads its reply.
func (c *client) do(args ...string) (*reply, error) {
	c.send(args...)
	if err := c.flush(); err != nil {
		return nil, err
	}
	r := new(reply)
	return r, c.read(r)
}

// command runs one command whose reply is a bulk string, such as
// METRICS, on a connection of its own. A fresh connection per command
// matters: mvkvd drops a reply larger than its 16 KiB write buffer on a
// connection whose previous flush is older than the daemon's write
// timeout (the overflow write runs under the stale deadline), and the
// scrapes are exactly such replies on otherwise idle connections.
func command(addr string, args ...string) (string, error) {
	c, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer c.close()
	r, err := c.do(args...)
	if err != nil {
		return "", err
	}
	if r.typ != '$' || r.null {
		return "", fmt.Errorf("%s: unexpected reply %s", args[0], r)
	}
	return string(r.str), nil
}

var errProto = errors.New("malformed RESP reply")

func (c *client) read(r *reply) error { return readReply(c.br, r) }

func readReply(br *bufio.Reader, r *reply) error {
	line, err := readLine(br)
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return errProto
	}
	r.typ, r.null = line[0], false
	r.str = r.str[:0]
	switch r.typ {
	case '+', '-':
		r.str = append(r.str, line[1:]...)
	case ':':
		r.n, err = strconv.ParseInt(string(line[1:]), 10, 64)
	case '$':
		var n int64
		if n, err = strconv.ParseInt(string(line[1:]), 10, 64); err != nil {
			return err
		}
		if n < 0 {
			r.null = true
			return nil
		}
		if cap(r.str) < int(n)+2 {
			r.str = make([]byte, 0, n+2)
		}
		r.str = r.str[:n+2]
		if _, err := io.ReadFull(br, r.str); err != nil {
			return err
		}
		r.str = r.str[:n]
	case '*':
		var n int64
		if n, err = strconv.ParseInt(string(line[1:]), 10, 64); err != nil {
			return err
		}
		if n < 0 {
			r.null = true
			r.elems = r.elems[:0]
			return nil
		}
		if cap(r.elems) < int(n) {
			r.elems = append(r.elems[:cap(r.elems)], make([]reply, int(n)-cap(r.elems))...)
		}
		r.elems = r.elems[:n]
		for i := range r.elems {
			if err := readReply(br, &r.elems[i]); err != nil {
				return err
			}
		}
	default:
		return errProto
	}
	return err
}

// readLine returns one CRLF-terminated line without the terminator; the
// slice is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProto
	}
	return line[:len(line)-2], nil
}
