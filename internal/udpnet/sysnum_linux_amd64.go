package udpnet

// sysSendmmsg is sendmmsg(2)'s system call number; package syscall
// does not export it on amd64.
const sysSendmmsg = 307
