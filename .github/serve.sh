# Sourced by the workflow steps that run `xbase serve`:
#   start_server DIR STORE
# starts `xbase serve STORE 127.0.0.1:0` in the background with its stderr
# in DIR/err, waits up to 10 s for its "serving" line, and sets $server to
# its pid and $port to the port it listens on; if it never serves, prints
# DIR/err and exits 1. The function runs in the sourcing shell, so the
# server is that shell's own child, which its `kill` and `wait` reach.
start_server() {
  python -m xbase serve "$2" 127.0.0.1:0 2> "$1/err" &
  server=$!
  for _ in $(seq 100); do grep -q serving "$1/err" && break; sleep 0.1; done
  port="$(sed -n 's/^serving .* on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$1/err")"
  test -n "$port" || { cat "$1/err"; exit 1; }
}
