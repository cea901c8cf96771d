package udpnet

import "syscall"

// sysSendmmsg is sendmmsg(2)'s system call number.
const sysSendmmsg = syscall.SYS_SENDMMSG
