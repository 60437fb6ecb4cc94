//! Per-connection input is bounded: a line longer than
//! `MAX_LINE_BYTES` is answered `-ERR line too long` after the lines
//! before it, its connection is closed and counted in
//! `lines_too_long`, and a neighbour connection keeps serving.

use dego_server::{spawn, Client, ServerConfig, MAX_LINE_BYTES};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

mod common;
use common::shards;

#[test]
fn overlong_line_is_rejected_on_the_event_loop() {
    let server = spawn(ServerConfig {
        shards: shards(2),
        capacity: 1024,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let mut hostile = TcpStream::connect(server.local_addr()).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // One complete line, then one byte more than the limit with no
    // newline. The server reads all of it before it rejects the line,
    // so its close is a clean FIN and the replies are not lost to a
    // reset.
    let mut input = b"PING\n".to_vec();
    input.resize(input.len() + MAX_LINE_BYTES + 1, b'x');
    hostile.write_all(&input).expect("send");

    let mut replies = String::new();
    hostile
        .read_to_string(&mut replies)
        .expect("replies, then the server closes the connection");
    assert_eq!(replies, "+PONG\n-ERR line too long\n");

    let mut neighbour = Client::connect(server.local_addr()).expect("connect");
    neighbour.ping().expect("a second connection still answers");
    let stats = neighbour.stats_map().expect("stats");
    assert_eq!(stats.get("lines_too_long").map(String::as_str), Some("1"));
    server.shutdown();
}
